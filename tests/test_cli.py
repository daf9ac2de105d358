import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ngonspec import cli, graphs, oracle, roots, spectrum

from conftest import (json_text, random_connected_graph, reference_csv_text,
                      reference_json_text)

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


# The child limits its own address space to 2 GB before it loads the
# package, so a count-sized allocation fails there instead of filling memory.
LIMITED_CLI = ("import resource, runpy; "
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "runpy.run_module('ngonspec', run_name='__main__')")


def run_cli_process(argv):
    """(exit code, stderr, seconds) of the CLI in its own limited process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    return done.returncode, done.stderr, time.perf_counter() - start


@pytest.mark.parametrize("largest", [1_000_000_000, 2_000_000])
def test_one_line_file_with_a_huge_id_exits_one_at_once(tmp_path, largest):
    path = write(tmp_path, "huge.txt", f"0 {largest}\n")
    code, err, seconds = run_cli_process(["spectrum", path, "--n", "2"])
    assert (code, err) == (1, "error: vertex 1 has no edges\n")
    assert seconds < 1.0


def test_verify_past_the_dense_cap_exits_two_at_once(tmp_path):
    # 29,526 vertices, under the explicit cap; the dense Laplacian alone
    # would take 6.5 GiB
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, err, seconds = run_cli_process(["verify", path, "--n", "2",
                                          "--g", "9"])
    assert (code, err) == (2, "error: dense eigensolve needs 29526 "
                           f"vertices, cap is {oracle.DENSE_ORDER_CAP}\n")
    assert seconds < 1.0
    assert 1825 <= oracle.DENSE_ORDER_CAP < 29526 \
        <= graphs.DEFAULT_EXPLICIT_CAP


@pytest.mark.parametrize("text, n, g, t, rows", [
    (TRIANGLE, 3, 30, 21, 7_340_030),
    ("0 1\n", 31, 6, 6, 18_874_367),
    (TRIANGLE, 400_000_000, 1, 1, 600_000_000)])
def test_spectrum_past_the_row_cap_exits_two_at_once(tmp_path, text, n, g, t,
                                                     rows):
    # each of these ran out of memory before the cap, a traceback and exit 1
    # under a 1.5 GB address space
    path = write(tmp_path, "base.txt", text)
    code, err, seconds = run_cli_process(["spectrum", path, "--n", str(n),
                                          "--g", str(g)])
    assert (code, err) == (2, f"error: generation {t} needs {rows} rows, "
                           f"cap is {cli.ROW_CAP}\n")
    assert seconds < 1.0


def test_row_cap_admits_the_largest_generations_under_it():
    for graph, n, g, rows in ((graphs.make_graph(2, [(0, 1)]), 31, 5,
                               1_179_647),
                              (graphs.parse_edge_list(TRIANGLE), 3, 20,
                               3_670_014)):
        spec, counts = spectrum.base_spectrum(graph)
        assert spectrum.row_count(spec, counts, n, g, cli.ROW_CAP) \
            == (g, rows) and rows <= cli.ROW_CAP


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
    (["verify", "--explicit-cap", "10"], "unrecognized arguments"),
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
    text = json_text({"items": [1.5, table, {"c": None}, "s"]})
    assert text == ('{\n  "items": [\n    1.5,\n    [\n'
                    '      {"a": 1, "b": 0.5},\n      {"a": 2, "b": "x"}\n'
                    '    ],\n    {"c": null},\n    "s"\n  ]\n}')
    assert json.loads(text) == {"items": [1.5, [{"a": 1, "b": 0.5},
                                                {"a": 2, "b": "x"}],
                                          {"c": None}, "s"]}
    assert json_text([{"d": True}, 3]) == '[\n  {"d": true},\n  3\n]'
    assert json_text([2, cli.Table(("e",), [["f"]])]) \
        == '[\n  2,\n  [\n    {"e": "f"}\n  ]\n]'


def test_json_float_list_renders_non_finite_as_null():
    assert json_text([0.25, float("nan"), 1.0]) \
        == "[\n  0.25,\n  null,\n  1\n]"
    assert json_text([float("inf"), -0.5]) == "[\n  null,\n  -0.5\n]"


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


def test_tree_count_cap_names_the_tree_count(tmp_path, capsys):
    count = oracle.TREE_COUNT_CAP + 1
    path = write(tmp_path, "c401.txt", "".join(
        f"{i} {(i + 1) % count}\n" for i in range(count)))
    assert cli.main(["invariants", path, "--n", "2"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: exact spanning-tree count needs {count} vertices, "
        f"cap is {oracle.TREE_COUNT_CAP}")


K4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
C5 = "0 1\n1 2\n2 3\n3 4\n0 4\n"
TINY = "2.2250738585072014e-308"  # float64's smallest normal value


@pytest.mark.parametrize("text, g, refused_at", [
    (C5, 1021, None), (C5, 1022, 1022), (TRIANGLE, 1100, 1023)],
    ids=["C5-g1021", "C5-g1022", "triangle-g1100"])
def test_eigenvalues_below_the_normal_range_exit_two(tmp_path, capsys, text,
                                                      g, refused_at):
    # At n = 2 the smallest row halves every generation: C5's is
    # 3.0749764449780788e-308 at g = 1021 and subnormal at g = 1022. Past
    # that a parent underflows to 0, which the transfer solve would
    # reject as invalid input.
    path = write(tmp_path, "base.txt", text)
    code = cli.main(["spectrum", path, "--n", "2", "--g", str(g)])
    out, err = capsys.readouterr()
    if refused_at is None:
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "5a48fa69b76f623e14a5625682aeb3ae335b16007107a55b8958cf770931dbd7"
        assert json.loads(out)["spectrum"][1]["value"] \
            == 3.0749764449780788e-308
        return
    assert (code, out) == (2, "")
    assert err == (
        f"error: generation {refused_at} has an eigenvalue below float64's "
        f"normal range ({TINY})\n")


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


def barbell(clique, inner):
    """Two cliques on `clique` vertices joined by a path through `inner`
    new vertices, as edge-list text."""
    edges = [(off + i, off + j) for off in (0, clique)
             for i in range(clique) for j in range(i + 1, clique)]
    path = [0, *range(2 * clique, 2 * clique + inner), clique]
    edges.extend(zip(path, path[1:]))
    return "".join(f"{u} {v}\n" for u, v in edges)


def test_second_eigenvalue_near_zero_stays_its_own_row(tmp_path, capsys):
    # 1,840 vertices and 15,881 edges; the second eigenvalue, about 8.4e-8,
    # lies within CLUSTER_TOL of 0.
    path = write(tmp_path, "barbell.txt", barbell(120, 1600))
    code, out = run_cli(capsys, ["spectrum", path, "--n", "3"])
    assert code == 0
    doc = json.loads(out)
    rows = doc["spectrum"]
    assert [r["source"] for r in rows].count("zero") == 1
    assert 0.0 < rows[1]["value"] < 1e-7
    assert sum(int(r["multiplicity"]) for r in rows) == int(doc["meta"]["N"])
    code, out = run_cli(capsys, ["verify", path, "--n", "2", "--g", "0"])
    assert code == 0
    checks = json.loads(out)["spectrum"]
    assert checks["matched"] and checks["size_theory"] == 1840


def test_parser_is_built_once_and_survives_errors(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    path = write(tmp_path, "k3.txt", TRIANGLE)
    argv = ["spectrum", path, "--n", "2"]
    _, first = run_cli(capsys, argv)
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum", path, "--n", "2", "--bogus"])
    assert err.value.code == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run_cli(capsys, argv) == (0, first)


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", SQUARE)
    argv = ["spectrum", path, "--n", "4", "--g", "2"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def assert_same_text(got, want):
    """got == want; a mismatch names its first differing characters, since
    pytest's own diff of two large outputs takes minutes."""
    if got != want:
        at = next((i for i, pair in enumerate(zip(got, want))
                   if pair[0] != pair[1]), min(len(got), len(want)))
        pytest.fail(f"texts differ at {at} of {len(got)}/{len(want)}: "
                    f"{got[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")


def written(output_format, document, table):
    """What cli._write prints for a result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write(output_format, document, table)
    return out.getvalue()


EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                               1e308, 0.1, -2.5e-17])
FLOATS = st.one_of(EDGE_FLOATS, st.floats())
FINITE_FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 1e308]),
                          st.floats(allow_nan=False, allow_infinity=False))
INTS = st.one_of(st.sampled_from([2 ** 64, 2 ** 64 + 1, -(2 ** 70)]),
                 st.integers(-(2 ** 80), 2 ** 80))
# Plain strings need no JSON escape and no CSV quote; the rest may hold
# anything, the characters both formats treat specially above all.
PLAIN = st.text(alphabet="abc XYZ019()-.%'", max_size=6)
TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\%,\r\n\t\x00\x1f\x7f\x85\u2028'),
    st.characters(codec="utf-8")), max_size=6)
# Each column draws a few values and repeats them down the rows, so
# uniform columns of each type take their own conversion.
POOLS = st.one_of(st.lists(FLOATS, min_size=1, max_size=4),
                  st.lists(FINITE_FLOATS, min_size=1, max_size=4),
                  st.lists(INTS, min_size=1, max_size=4),
                  st.lists(PLAIN, min_size=1, max_size=4),
                  st.lists(TEXT, min_size=1, max_size=4),
                  st.lists(st.one_of(st.none(), st.booleans(), INTS, FLOATS,
                                     PLAIN, TEXT), min_size=1, max_size=4))
# The reference builds a str.format template from the keys, so it cannot
# take braces in them; test_header_keys_may_hold_braces covers those.
KEYS = st.one_of(PLAIN, TEXT, st.just("%s%%d")).filter(
    lambda key: "{" not in key and "}" not in key)
BLOCK_ROWS = [0, 1, 2, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1]


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_writer_matches_the_reference_writer(rows, data):
    pools = data.draw(st.lists(POOLS, min_size=1, max_size=4))
    header = tuple(data.draw(st.lists(KEYS, min_size=len(pools),
                                      max_size=len(pools))))
    columns = [[pool[i % len(pool)] for i in range(rows)] for pool in pools]
    table = cli.Table(header, columns)
    document = {"meta": {"rows": rows}, "table": table,
                "column": columns[0], "nested": [table, columns[-1]]}
    assert_same_text(json_text(table), reference_json_text(table))
    assert_same_text(json_text(document), reference_json_text(document))
    assert_same_text(written("csv", None, table), reference_csv_text(table))


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_float_array_columns_print_as_their_lists(rows):
    pool = [0.1, -0.0, 5e-324, 1e308, 1.5, math.inf, -math.inf, math.nan]
    for cells in ([pool[i % 5] for i in range(rows)],
                  [pool[i % len(pool)] for i in range(rows)]):
        array = cli.Table(("v", "w"), [np.array(cells), ["a"] * rows])
        plain = cli.Table(("v", "w"), [cells, ["a"] * rows])
        assert json_text(array) == json_text(plain)
        assert written("csv", None, array) == written("csv", None, plain)
    if rows > 5:
        assert ' {"v": null, "w": "a"}' in json_text(array)


def test_header_keys_may_hold_braces():
    # The str.format row template before the block writer raised here.
    table = cli.Table(("{0}", "%}{"), [[1, 2], ["x", None]])
    assert json_text(table) == ('[\n  {"{0}": 1, "%}{": "x"},\n'
                                     '  {"{0}": 2, "%}{": null}\n]')
    assert written("csv", None, table) == "{0},%}{\n1,x\n2,\n"


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_spectrum_past_a_block_matches_the_reference_writer(
        tmp_path, capsys, output_format):
    path = write(tmp_path, "k4.txt", K4)
    argv = ["spectrum", path, "--n", "3", "--g", "11"]
    _, document, table = cli._cmd_spectrum(cli._parser().parse_args(argv),
                                           graphs.parse_edge_list(K4))
    assert len(table.columns[0]) > 2 * cli._BLOCK
    want = (reference_json_text(document) + "\n" if output_format == "json"
            else reference_csv_text(table))
    code, out = run_cli(capsys, [*argv, "--output-format", output_format])
    assert code == 0
    assert_same_text(out, want)


def test_write_streams_what_json_text_returns(tmp_path):
    # One document of every subcommand that prints one; transform prints
    # its edge list instead.
    path = write(tmp_path, "k3.txt", TRIANGLE)
    pair = write(tmp_path, "pair.json",
                 json.dumps({"value": 1.5, "vector": [2, -1, -1]}))
    graph = graphs.parse_edge_list(TRIANGLE)
    for argv in (["spectrum", path, "--n", "3", "--g", "2"],
                 ["invariants", path, "--n", "3", "--g", "2"],
                 ["invariants", path, "--n", "3", "--exact"],
                 ["verify", path, "--n", "3"],
                 ["lift", path, "--n", "3", "--eigenpair", pair]):
        ns = cli._parser().parse_args(argv)
        code, document, table = cli._COMMANDS[ns.command][0](ns, graph)
        assert code == 0
        text = json_text(document) + "\n"
        assert_same_text(written("json", document, table), text)
        assert_same_text(text, reference_json_text(document) + "\n")


class CountingStdout(io.StringIO):
    """stdout that keeps the length of every write with text in it (print
    writes its empty end="" too)."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        if text:
            self.writes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_spectrum_streams_a_block_per_write(tmp_path, output_format):
    # A large result never exists as one string: each block of rows is
    # printed as it is made, the short parts around them joined.
    path = write(tmp_path, "k4.txt", K4)
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        assert cli.main(["spectrum", path, "--n", "3", "--g", "11",
                         "--output-format", output_format]) == 0
    lines = out.getvalue().splitlines(keepends=True)
    rows = (lines[1:] if output_format == "csv"
            else [line for line in lines if line.startswith('    {"value"')])
    assert len(rows) == 8190
    assert len(out.writes) <= math.ceil(len(rows) / cli._BLOCK) + 3
    assert max(out.writes) <= max(sum(map(len, rows[start:start + cli._BLOCK]))
                                  for start in range(0, len(rows), cli._BLOCK))


def test_closed_stdout_exits_one_without_a_traceback(tmp_path):
    # The reader takes one line and closes the pipe; the rest, about
    # 700 kB, cannot fit in the pipe, so a later write meets the closed end.
    path = write(tmp_path, "k4.txt", K4)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ngonspec", "spectrum", path, "--n", "3",
         "--g", "11"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)  # stderr is short: the pipe cannot fill
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert code == 1
    assert "Traceback" not in err and "Error" not in err


# stdout digests of `invariants` on the triangle at n = 3, g = 9 with every
# generation's from-spectrum row, recorded when the subcommand still
# solved every parent anew.
DEEP_INVARIANTS = {
    "json": "09561d43c16d1b4683b357bd71b98ff9cbdcc9585bd6a8953b4f739eb6c1fb8b",
    "csv": "3964e819cdbc76c5b2bf0da0af33c991701f0ebb76d41486b2fff27cea90285b"}


@pytest.mark.parametrize("fmt", sorted(DEEP_INVARIANTS))
def test_invariants_solve_each_new_parent_once(tmp_path, capsys,
                                               monkeypatch, fmt):
    solve = roots.solve_lambda_many
    calls = []
    monkeypatch.setattr(roots, "solve_lambda_many", lambda n, lams: (
        calls.append(np.asarray(lams)) or solve(n, lams)))
    path = write(tmp_path, "k3.txt", TRIANGLE)
    code, out = run_cli(capsys, [
        "invariants", path, "--n", "3", "--g", "9", "--explicit-cap",
        "1000000000", "--output-format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_INVARIANTS[fmt]
    # one call per generation, each with distinct values the call before
    # did not have: 893 rows, where solving every parent took 1,762
    assert len(calls) == 9
    for before, lams in zip([np.empty(0)] + calls, calls):
        assert len(np.unique(lams)) == len(lams)
        assert not np.isin(lams, before).any()
    assert sum(map(len, calls)) == 893
