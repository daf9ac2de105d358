"""Closed-loop CLI benchmark for ngonspec.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum-deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One client, one thread: each op is a call to `ngonspec.cli.main(argv)` in
this process with stdout captured, and the next op starts when it returns.
The workload's cycle of ops repeats, in whole cycles, until the summed
op time is as close to --seconds as whole cycles allow. The first output
of each op is checked (checks.py); every repeat must print the same bytes.

--trace 0 prints the end-to-end metrics. --trace 1 runs each op twice,
once plain and once with spans around the package's public functions
(tracing.py), and prints the per-layer metrics plus the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. `--workload all` runs every workload in its own process.

The program is imported from ./src of the checkout and nowhere else;
without it the benchmark exits with status 1 and prints no result.
"""

import os

# Pin BLAS threads before numpy loads: one client thread, steady timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Percentile reported as op_tail_s, per workload: the highest of
# 50/75/90/95/99 with at least ten ops beyond it in a 35 s run, also on a
# host a third slower, and below roots-highn's known-defect share (a
# failed op counts as +inf). With
# 15-op cycles p90 and p50 fall mid-block (see workloads.CYCLE); p75 falls
# a quarter into a block.
TAIL_PERCENTILE = {
    "spectrum-deep": 0.75,
    "roots-highn": 0.90,
    "verify-explicit": 0.90,
}
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "ops_per_s": "1/s", "ok_ratio": "ratio", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import ngonspec.cli; "
              "[open(p, 'rb').read() for p in sys.argv[2:]]")


def import_program():
    """Import ngonspec.cli from ./src; exit 1 when the checkout lacks it."""
    if not (SRC / "ngonspec" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'ngonspec'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    from ngonspec import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: ngonspec imported from {cli.__file__}, not {SRC}")
    return cli


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def measure_setup(files: list[Path]) -> float:
    """Median wall time of a fresh interpreter importing ngonspec.cli
    (numpy included) and reading the workload's input files."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, files)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def _git_sha() -> str:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unavailable"


class Client:
    """Runs ops, checks their output and keeps the failure record."""

    def __init__(self, cli, workload, inputs: Path):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.digests: dict[str, bytes] = {}
        self.failures: dict[str, dict] = {}
        self.unexpected = 0
        self.busy = 0.0

    def run(self, op, tracer=None) -> tuple[float, bool]:
        """One op: (seconds, passed). A failed op's time is +inf."""
        argv = self.workload.argv(op, self.inputs)
        out = io.StringIO()
        gc.collect()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = self._main(argv)
                else:
                    code = tracer.run_op(op.key, lambda: self._main(argv))
            reason = None
        except Exception as exc:  # a traceback from the program is a failure
            code, reason = None, f"{type(exc).__name__}: {exc}"[:200]
        elapsed = perf_counter() - start
        self.busy += elapsed
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(text)
        if reason is None:
            reason = self._check(op, code, text)
        if reason is None:
            return elapsed, True
        record = self.failures.setdefault(
            op.key, {"count": 0, "reason": reason,
                     "known_defect": op.known_defect})
        record["count"] += 1
        if op.known_defect is None:
            self.unexpected += 1
        return math.inf, False

    def _check(self, op, code, text: str) -> str | None:
        # The first correct output of an op is checked in full; a repeat
        # is correct exactly when it prints the same bytes.
        digest = hashlib.sha256(text.encode()).digest()
        known = self.digests.get(op.key)
        if known is not None:
            if code != 0:
                return f"exit code {code}"
            if digest != known:
                return "stdout differs from an earlier run of this op"
            return None
        reason = checks.check(self.workload.bases[op.base], op, code, text)
        if reason is None:
            self.digests[op.key] = digest
        return reason

    def _main(self, argv) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop for `seconds` of op time, and measure."""
    cli = import_program()
    workload = workloads.build(name, seed)
    inputs = WORK / f"{name}-s{seed}-p{os.getpid()}"
    try:
        files = workload.write_inputs(inputs)
        setup_s = measure_setup(files)
        client = Client(cli, workload, inputs)
        tracer = tracing.Tracer() if trace else None
        plain, traced = [], []
        cycles = 0
        # Whole cycles only, so every run measures the same op mix: stop
        # at the cycle count whose op time comes closest to `seconds`.
        while cycles == 0 or client.busy < seconds - client.busy / cycles / 2:
            for visit, op in enumerate(workload.ops):
                if tracer is None:
                    plain.append(client.run(op))
                    continue
                # Alternate which copy goes first so warm caches favour
                # neither side of the overhead figure.
                traced_first = (visit + cycles) % 2 == 1
                for traced_copy in (traced_first, not traced_first):
                    if not traced_copy:
                        plain.append(client.run(op))
                        continue
                    tracer.install()
                    try:
                        traced.append(client.run(op, tracer))
                    finally:
                        tracer.uninstall()
            cycles += 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    results = plain + traced
    passed = sum(ok for _, ok in results)
    times = [t for t, _ in plain]
    tail = TAIL_PERCENTILE[name]
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "op_p50_s": percentile(times, 0.5),
            "op_tail_s": percentile(times, tail),
            "ops_per_s": passed / client.busy,
            "ok_ratio": passed / len(results),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    else:
        traced_times = [t for t, _ in traced]
        values = tracer.layer_metrics()
        values["trace.overhead_p50_s"] = (percentile(traced_times, 0.5)
                                          - percentile(times, 0.5))
        values["trace.overhead_tail_s"] = (percentile(traced_times, tail)
                                           - percentile(times, tail))
        units = tracing.UNITS
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{name}-s{seed}.jsonl")
    return {
        "workload": name,
        "env": environment(seed),
        "tail": {"percentile": tail, "ops": len(times),
                 "beyond": len(times) - math.ceil(tail * len(times))},
        "failures": client.failures,
        "result": {
            "correct": client.unexpected == 0,
            "attempted": len(results),
            "failed": len(results) - passed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
        },
    }


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    result = record["result"]
    tail = record["tail"]
    print(f"workload {record['workload']}")
    print("env " + json.dumps(record["env"]))
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"  op_tail_s is p{tail['percentile'] * 100:g} of {tail['ops']} "
          f"plain ops, {tail['beyond']} beyond it")
    print(f"  fail_ratio {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for key, failure in sorted(record["failures"].items()):
        known = failure["known_defect"]
        note = f" [known defect: {known}]" if known else ""
        print(f"  failed x{failure['count']} {key}: {failure['reason']}{note}")


def run_all(args) -> int:
    """Every workload in its own fresh process; prints each one's lines."""
    combined = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        combined[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
