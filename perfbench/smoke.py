"""Self-test of the benchmark at tiny size.

    python3 perfbench/smoke.py

Checks that every workload, plain and traced, emits exactly the metrics
BENCHMARK.json names, with their units, and that each output check
rejects a deliberately corrupted output. Exits 0 when all hold.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import checks
import workloads

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def metric_names() -> None:
    """Each workload, cut to its first three ops, emits every metric."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    build = workloads.build

    def tiny(name, seed):
        workload = build(name, seed)
        workload.ops = workload.ops[:3]
        return workload

    run.SETUP_REPEATS = 1
    workloads.build = tiny
    try:
        for name in workloads.WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                result = run.run_workload(name, 1, 0.001, trace)["result"]
                want = {m["name"]: m["unit"] for m in spec[section]}
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                expect(got == want, f"{name} trace={trace}: metrics {got} "
                                    f"differ from BENCHMARK.json {want}")
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} trace={trace}: {result}")
    finally:
        workloads.build = build


def _output(cli, workload, op, inputs: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(workload.argv(op, inputs))
    expect(code == 0, f"{op.key}: exit {code}")
    return out.getvalue()


def _rejects(base, op, corrupted: str, what: str) -> None:
    expect(checks.check(base, op, 0, corrupted) is not None,
           f"{op.command}{' csv' if op.csv else ''}: check accepted {what}")


def corrupted_outputs(cli, inputs: Path) -> None:
    """A correct output passes its check; each corruption of it fails."""
    b = workloads._Maker("smoke", 0)
    w = b.workload
    tri = b.base("triangle")
    b.base("Petersen")
    b.op("spectrum", tri, 3, 3)
    b.op("spectrum", tri, 3, 3, ("--output-format", "csv"))
    b.op("invariants", "Petersen", 3, 2)
    b.op("invariants", "Petersen", 3, 2, ("--output-format", "csv"))
    b.op("verify", tri, 2, 2)
    b.op("transform", tri, 3, 2)
    b.op("lift", b.base((8, 11)), 3, 1)
    w.write_inputs(inputs)
    outputs = {op.key: _output(cli, w, op, inputs) for op in w.ops}
    for op in w.ops:
        base = w.bases[op.base]
        out = outputs[op.key]
        expect(checks.check(base, op, 0, out) is None,
               f"{op.key}: correct output rejected: "
               f"{checks.check(base, op, 0, out)}")
        expect(checks.check(base, op, 3, out) is not None,
               f"{op.key}: exit code 3 accepted")
        corrupt = CORRUPTIONS.get((op.command, op.csv), {})
        for what, change in corrupt.items():
            _rejects(base, op, change(out), what)


def _json_edit(edit):
    def change(out: str) -> str:
        doc = json.loads(out)
        edit(doc)
        return json.dumps(doc)
    return change


def _csv_edit(column: int, row: int, edit):
    def change(out: str) -> str:
        lines = out.splitlines()
        fields = lines[row].split(",")
        fields[column] = edit(fields[column])
        lines[row] = ",".join(fields)
        return "\n".join(lines) + "\n"
    return change


def _entry(index: int, key: str, edit):
    def apply(doc):
        entry = doc["spectrum"][index]
        entry[key] = edit(entry[key])
    return _json_edit(apply)


def _swap_first_entries(doc):
    entries = doc["spectrum"]
    entries[1], entries[2] = entries[2], entries[1]


def _row(method: str, key: str, edit):
    def apply(doc):
        row = next(r for r in reversed(doc["invariants"]["generations"])
                   if r["method"] == method)
        row[key] = edit(row[key])
    return _json_edit(apply)


def _drop_closed_row(doc):
    rows = doc["invariants"]["generations"]
    rows.remove(next(r for r in rows if r["method"] == "closed-form"))


CORRUPTIONS = {
    ("spectrum", False): {
        "a multiplicity off by one": _entry(3, "multiplicity",
                                            lambda m: str(int(m) + 1)),
        "a perturbed Kemeny sum": _entry(3, "value", lambda v: v * 1.000001),
        "unsorted values": _json_edit(_swap_first_entries),
        "a value above 2": _entry(-1, "value", lambda v: 2.5),
    },
    ("spectrum", True): {
        "a multiplicity off by one": _csv_edit(1, 4, lambda m: str(int(m) + 1)),
        "a perturbed Kemeny sum": _csv_edit(
            0, 4, lambda v: repr(float(v) * 1.000001)),
    },
    ("invariants", False): {
        "a perturbed from-spectrum Kemeny": _row(
            "from-spectrum", "kemeny", lambda k: k * (1 + 1e-7)),
        "a perturbed closed-form Kirchhoff": _row(
            "closed-form", "kirchhoff", lambda k: k * (1 - 1e-7)),
        "a missing closed-form row": _json_edit(_drop_closed_row),
    },
    ("invariants", True): {
        "a perturbed from-spectrum Kemeny": _csv_edit(
            3, -1, lambda k: repr(float(k) * (1 + 1e-7))),
    },
    ("verify", False): {
        "matched false": _json_edit(
            lambda doc: doc["spectrum"].update(matched=False)),
    },
    ("transform", False): {
        "a missing edge": lambda out: "".join(out.splitlines(True)[:-1]),
        "an out-of-range vertex id":
            lambda out: out[:out.rstrip().rfind(" ") + 1] + "99999\n",
    },
}


def byte_identity(cli, inputs: Path) -> None:
    """An op whose repeat prints different bytes counts as failed."""
    b = workloads._Maker("smoke", 0)
    w = b.workload
    b.op("transform", b.base("triangle"), 2, 1)
    w.write_inputs(inputs)
    calls = []

    class Drifting:
        """Prints the real edge list, with extra spaces on the repeat."""

        @staticmethod
        def main(argv):
            text = _output(cli, w, w.ops[0], inputs)
            calls.append(argv)
            print(text.replace(" ", "  ") if len(calls) > 1 else text, end="")
            return 0

    client = run.Client(Drifting, w, inputs)
    first = client.run(w.ops[0])
    second = client.run(w.ops[0])
    expect(first[1] and not second[1],
           f"byte drift not caught: {first}, {second}")


def main() -> int:
    cli = run.import_program()
    metric_names()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        corrupted_outputs(cli, Path(tmp))
        byte_identity(cli, Path(tmp))
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
