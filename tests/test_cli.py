import ast
import csv
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest

from ngonspec import cli, oracle

from conftest import random_connected_graph

TRIANGLE = "0 1\n0 2\n1 2\n"
SQUARE = "0 1\n1 2\n2 3\n0 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_spectrum_json_triangle(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, out = run_cli(capsys, ["spectrum", path, "--n", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"] == {"n": 2, "g": 1, "N": "6", "E": "9",
                           "bipartite": False}
    values = [e["value"] for e in doc["spectrum"]]
    assert np.allclose(values, [0.0, 0.75, 1.5], atol=1e-12)
    assert [e["multiplicity"] for e in doc["spectrum"]] == ["1", "2", "3"]
    assert [e["source"] for e in doc["spectrum"]] \
        == ["zero", "lifted(1.5)", "family-plus"]


def test_spectrum_csv(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, out = run_cli(capsys, ["spectrum", path, "--n", "2",
                                 "--output-format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["value", "multiplicity", "source"]
    assert len(rows) == 4
    assert rows[2][1:] == ["2", "lifted(1.5)"]


def test_exact_invariants_triangle(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, out = run_cli(capsys, ["invariants", path, "--n", "2", "--exact"])
    assert code == 0
    inv = json.loads(out)["invariants"]
    assert inv["kirchhoff"] == "84"
    assert inv["kemeny"] == "14/3"
    assert inv["spanning_trees"] == "54"
    start = inv["generations"][0]
    assert (start["kirchhoff"], start["kemeny"]) == ("8", "4/3")


def test_invariants_number_mode_and_chain(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, out = run_cli(capsys, ["invariants", path, "--n", "2", "--g", "2"])
    assert code == 0
    doc = json.loads(out)
    inv = doc["invariants"]
    assert abs(inv["kirchhoff"] - 882) < 1e-9
    assert inv["spanning_trees"] == "209952"
    methods = {(row["generation"], row["method"])
               for row in inv["generations"]}
    assert (2, "closed-form") in methods
    assert (2, "from-spectrum") in methods
    for row in inv["generations"]:
        if row["method"] == "from-spectrum" and row["generation"] == 2:
            assert abs(row["kirchhoff"] - 882) < 1e-6


def test_invariants_csv(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", SQUARE)
    code, out = run_cli(capsys, ["invariants", path, "--n", "3",
                                 "--output-format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["generation", "method", "kirchhoff", "kemeny",
                       "spanning_trees"]
    assert len(rows) >= 3


def test_verify_passes_and_reports(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", SQUARE)
    code, out = run_cli(capsys, ["verify", path, "--n", "3", "--g", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["spectrum"]["matched"] is True
    assert doc["spectrum"]["max_abs_deviation"] < 1e-10
    assert doc["spanning_trees"]["equal"] is True


def test_verify_mismatch_exit_code(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, out = run_cli(capsys, ["verify", path, "--n", "2",
                                 "--tolerance", "1e-18"])
    assert code == 3
    assert json.loads(out)["spectrum"]["matched"] is False


def test_transform_round_trips(tmp_path, capsys):
    path = write(tmp_path, "k2.txt", "0 1\n")
    code, out = run_cli(capsys, ["transform", path, "--n", "3"])
    assert code == 0
    assert out.splitlines() == ["0 1", "0 2", "1 3", "2 3"]
    again = write(tmp_path, "c4.txt", out)
    code, out2 = run_cli(capsys, ["spectrum", again, "--n", "3", "--g", "0"])
    assert code == 0
    values = [e["value"] for e in json.loads(out2)["spectrum"]]
    assert np.allclose(values, [0.0, 1.0, 2.0], atol=1e-12)


def test_lift_command(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    pair = write(tmp_path, "pair.json",
                 json.dumps({"value": 1.5, "vector": [2, -1, -1]}))
    code, out = run_cli(capsys, ["lift", path, "--n", "3",
                                 "--eigenpair", pair])
    assert code == 0
    doc = json.loads(out)
    assert doc["eigenvalue"] == 1.5
    assert len(doc["lifts"]) == 2
    for item in doc["lifts"]:
        assert item["residual"] <= 1e-8
        assert len(item["vector"]) == 9
        assert np.allclose(item["vector"][:3], [2, -1, -1])


def test_lift_at_high_n_meets_tolerance(tmp_path, capsys):
    base = random_connected_graph(random.Random(0), 40, 20)
    path = write(tmp_path, "base.txt",
                 "".join(f"{u} {v}\n" for u, v in base.edges))
    values, vectors = np.linalg.eigh(oracle.normalized_laplacian(base).entries)
    pair = write(tmp_path, "pair.json",
                 json.dumps({"value": float(values[20]),
                             "vector": vectors[:, 20].tolist()}))
    code, out = run_cli(capsys, ["lift", path, "--n", "32",
                                 "--eigenpair", pair])
    assert code == 0
    lifts = json.loads(out)["lifts"]
    assert len(lifts) == 16
    assert max(item["residual"] for item in lifts) <= 1e-8


def test_spectrum_at_high_n(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, out = run_cli(capsys, ["spectrum", path, "--n", "64", "--g", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["N"] == "192"
    assert sum(int(e["multiplicity"]) for e in doc["spectrum"]) == 192


def test_lift_rejects_non_eigenpair(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    pair = write(tmp_path, "pair.json",
                 json.dumps({"value": 1.5, "vector": [1, 0, 0]}))
    code, _ = run_cli(capsys, ["lift", path, "--n", "3",
                               "--eigenpair", pair])
    assert code == 1


@pytest.mark.parametrize("document", [
    "[1, 2]",
    '{"value": 1.5, "vector": 3}',
    '{"value": null, "vector": [2, -1, -1]}',
    '{"value": 1.5, "vector": [2, null, -1]}',
    '{"value": 1.5, "vector": [2, -1e400, -1]}',
    '{"value": NaN, "vector": [2, -1, -1]}',
    '{"value": 1' + '0' * 400 + ', "vector": [2, -1, -1]}',
])
def test_lift_rejects_malformed_eigenpair_documents(tmp_path, capsys,
                                                    document):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    pair = write(tmp_path, "pair.json", document)
    assert cli.main(["lift", path, "--n", "3", "--eigenpair", pair]) == 1
    assert capsys.readouterr().err.startswith(
        "error: eigenpair file must hold finite numbers")


def test_exact_is_an_invariants_option_only(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    for command in ("spectrum", "verify", "transform"):
        with pytest.raises(SystemExit) as err:
            cli.main([command, path, "--n", "2", "--exact"])
        assert err.value.code == 1
        assert "unrecognized arguments: --exact" in capsys.readouterr().err


def test_parse_failures_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert cli.main(["spectrum", missing, "--n", "2"]) == 1
    capsys.readouterr()
    disconnected = write(tmp_path, "disc.txt", "0 1\n2 3\n")
    assert cli.main(["spectrum", disconnected, "--n", "2"]) == 1
    capsys.readouterr()
    bad_line = write(tmp_path, "bad.txt", "0 1\n1 x\n")
    assert cli.main(["spectrum", bad_line, "--n", "2"]) == 1
    capsys.readouterr()
    not_text = tmp_path / "bytes.txt"
    not_text.write_bytes(b"\xff\xfe")
    assert cli.main(["spectrum", str(not_text), "--n", "2"]) == 1
    assert "can't decode" in capsys.readouterr().err


def test_flag_errors_exit_one(tmp_path, capsys):
    for argv in (["spectrum", "somefile"],         # --n is required
                 ["not-a-command"],
                 ["spectrum", "somefile", "--n", "1"],
                 # nan passed a `<= 0` check and made verify exit 3; inf
                 # let lift accept a vector that is no eigenvector
                 ["verify", "somefile", "--n", "2", "--tolerance", "nan"],
                 ["lift", "somefile", "--n", "3", "--eigenpair", "pair.json",
                  "--tolerance", "inf"],
                 ["verify", "somefile", "--n", "2", "--tolerance=-inf"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 1
        if any(arg.startswith("--tolerance") for arg in argv):
            assert capsys.readouterr().err.endswith(
                "error: --tolerance must be a positive finite number\n")
        capsys.readouterr()


UNREAD_FLAGS = [
    (["transform", "--output-format", "csv"], "unrecognized arguments"),
    (["transform", "--tolerance", "1e-9"], "unrecognized arguments"),
    (["spectrum", "--tolerance", "1e-9"], "unrecognized arguments"),
    (["spectrum", "--explicit-cap", "10"], "unrecognized arguments"),
    (["invariants", "--tolerance", "1e-9"], "unrecognized arguments"),
    (["lift", "--g", "0"], "--g"),
    (["lift", "--g", "2"], "--g")]


@pytest.mark.parametrize("argv, message", UNREAD_FLAGS, ids=[
    "-".join(word.lstrip("-") for word in argv) for argv, _ in UNREAD_FLAGS])
def test_flags_a_subcommand_does_not_read_exit_one(tmp_path, capsys, argv,
                                                    message):
    # Each of these would otherwise run on the triangle and exit 0 with
    # the flag ignored.
    command, *flags = argv
    path = write(tmp_path, "k3.txt", TRIANGLE)
    if command == "lift":
        flags += ["--eigenpair", write(tmp_path, "pair.json", json.dumps(
            {"value": 1.5, "vector": [2, -1, -1]}))]
    with pytest.raises(SystemExit) as err:
        cli.main([command, path, "--n", "3", *flags])
    assert err.value.code == 1
    assert message in capsys.readouterr().err


def test_json_list_with_a_table_or_dict_beside_scalars_renders_nested():
    table = cli.Table(("a", "b"), [[1, 2], [0.5, "x"]])
    text = cli._json_text({"items": [1.5, table, {"c": None}, "s"]})
    assert text == ('{\n  "items": [\n    1.5,\n    [\n'
                    '      {"a": 1, "b": 0.5},\n      {"a": 2, "b": "x"}\n'
                    '    ],\n    {"c": null},\n    "s"\n  ]\n}')
    assert json.loads(text) == {"items": [1.5, [{"a": 1, "b": 0.5},
                                                {"a": 2, "b": "x"}],
                                          {"c": None}, "s"]}
    assert cli._json_text([{"d": True}, 3]) == '[\n  {"d": true},\n  3\n]'
    assert cli._json_text([2, cli.Table(("e",), [["f"]])]) \
        == '[\n  2,\n  [\n    {"e": "f"}\n  ]\n]'


def test_json_float_list_renders_non_finite_as_null():
    assert cli._json_text([0.25, float("nan"), 1.0]) \
        == "[\n  0.25,\n  null,\n  1\n]"
    assert cli._json_text([float("inf"), -0.5]) == "[\n  null,\n  -0.5\n]"


def test_one_writer_prints_results():
    # Every result reaches stdout through cli._write; only transform prints
    # its edge list itself.
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}

    def calls(node, name):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and ast.unparse(call.func) == name]

    def stdout_prints(node):
        return [call for call in calls(node, "print")
                if not any(k.arg == "file" and ast.unparse(k.value)
                           == "sys.stderr" for k in call.keywords)]

    writer = functions["_write"]
    assert calls(tree, "csv.writer") == calls(writer, "csv.writer")
    assert len(calls(tree, "csv.writer")) == 1
    assert set(stdout_prints(tree)) == {
        *stdout_prints(writer), *stdout_prints(functions["_cmd_transform"])}
    assert "sys.stdout.write" not in ast.unparse(tree)


def test_cap_exit_code(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, _ = run_cli(capsys, ["transform", path, "--n", "5", "--g", "8"])
    assert code == 2
    code, _ = run_cli(capsys, ["verify", path, "--n", "2", "--g", "2",
                               "--explicit-cap", "10"])
    assert code == 2


def test_tree_count_cap_names_the_tree_count(tmp_path, capsys):
    count = oracle.TREE_COUNT_CAP + 1
    path = write(tmp_path, "c401.txt", "".join(
        f"{i} {(i + 1) % count}\n" for i in range(count)))
    assert cli.main(["invariants", path, "--n", "2"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: exact spanning-tree count needs {count} vertices, "
        f"cap is {oracle.TREE_COUNT_CAP}")


K4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.mark.parametrize("text, g", [(TRIANGLE, 42), (K4, 40), (K4, 42)])
def test_tiny_lifted_values_are_not_zero(tmp_path, capsys, text, g):
    # The smallest lifted value is about 1e-12 or less here; only the row
    # tagged zero is the eigenvalue 0.
    path = write(tmp_path, "base.txt", text)
    code, out = run_cli(capsys, ["spectrum", path, "--n", "2", "--g", str(g)])
    assert code == 0
    doc = json.loads(out)
    rows = doc["spectrum"]
    assert [r["source"] for r in rows].count("zero") == 1
    assert 0.0 < rows[1]["value"] < 1.5e-12
    assert sum(int(r["multiplicity"]) for r in rows) == int(doc["meta"]["N"])


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", SQUARE)
    argv = ["spectrum", path, "--n", "4", "--g", "2"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second
