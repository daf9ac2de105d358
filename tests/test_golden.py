"""Byte-equality gate on CLI stdout.

golden_stdout.json holds the exit code and the sha256 digest of stdout
for every conftest corpus graph with n in 2..7: `spectrum`, `invariants`
and `invariants --exact` in both output formats with g in 0..2, `verify`
in both formats with g in 0..1, `transform` with g in 0..2, and `lift`
in both formats for every simple eigenvalue of the base (0 and 2 among
them, which lift rejects with exit 1). A second lift group holds the
recurrence at high n: a seeded 40-vertex base with n in {10, 16, 22, 32}
and every eighth simple eigenvalue. lift's eigenpairs come from
numpy.linalg.eigh with each vector's sign fixed and every number rounded
to 12 decimals, so they do not depend on the LAPACK build. Base
eigenvalues come from LAPACK, so the digests belong to the Python and
numpy versions recorded with them. verify's `max_abs_deviation` and
lift's `residual` are rounding noise, which also moves with the CPU and
the BLAS thread count, so their values are masked before hashing; the
oracle, CLI and acceptance tests bound them by tolerance. After a
deliberate output change, record the digests again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import hashlib
import io
import json
import platform
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ngonspec import cli, oracle

from conftest import build_corpus, random_connected_graph

GOLDEN = Path(__file__).with_name("golden_stdout.json")
FORMATS = ("json", "csv")


def generations(count):
    """Variants g = 0..count-1 of a case: (key suffix, flags) pairs."""
    return lambda name, graph, directory: [
        (f"g={g}", ["--g", str(g)]) for g in range(count)]


def eigenpairs(name, graph, directory, stride=1):
    """One variant per stride-th simple base eigenvalue k, as eigenpair file.

    Each vector's first entry above 1e-6 in size is made positive, and
    every number is rounded to 12 decimals (the vector has unit norm), so
    the files hold the same bytes under any LAPACK build.
    """
    laplacian = oracle.normalized_laplacian(graph).entries
    values, vectors = np.linalg.eigh(laplacian)
    gaps = np.diff(values)
    simple = [k for k in range(len(values))
              if min(gaps[max(k - 1, 0):k + 1]) >= 1e-6]
    out = []
    for k in simple[::stride]:
        value = float(values[k])
        vector = vectors[:, k]
        vector = vector * np.sign(vector[np.argmax(np.abs(vector) > 1e-6)])
        path = directory / f"{name}-pair{k}.json"
        path.write_text(json.dumps({
            "value": round(value, 12) + 0.0,
            "vector": (np.round(vector, 12) + 0.0).tolist()}))
        out.append((f"k={k}", ["--eigenpair", str(path)]))
    return out


def high_n_base():
    """57 edges on 40 vertices: lifted at n = 32 it has 1,807 vertices."""
    return {"R40": random_connected_graph(random.Random(40), 40, 20)}


# Base graphs with their n values, under a label for the test id.
CORPUS = ("", build_corpus, range(2, 8))
HIGH_N = ("high-n", high_n_base, (10, 16, 22, 32))
# (command with its flags, output formats, variants, bases); transform
# has no output format, so its keys carry none. verify stops at
# g = 1: g = 2 builds and eigensolves graphs of up to 820 vertices, and
# one format of it takes about 10 s against 0.7 s for g in 0..1. lift
# always grows one step, so its variants are eigenpairs instead of
# generations; at high n a lift prints up to 2 MB, hence the stride.
GROUPS = ((("spectrum",), FORMATS, generations(3), CORPUS),
          (("invariants",), FORMATS, generations(3), CORPUS),
          (("invariants", "--exact"), FORMATS, generations(3), CORPUS),
          (("verify",), FORMATS, generations(2), CORPUS),
          (("transform",), (None,), generations(3), CORPUS),
          (("lift",), FORMATS, eigenpairs, CORPUS),
          (("lift",), FORMATS, functools.partial(eigenpairs, stride=8),
           HIGH_N))
# Rounding noise masked before hashing, by subcommand and format.
DEVIATION = re.compile(r"(max_abs_deviation\W+)[^,\n]+")
MASKS = {("verify", "json"): DEVIATION, ("verify", "csv"): DEVIATION,
         ("lift", "json"): re.compile(r'("residual": )[^,\n]+'),
         ("lift", "csv"): re.compile(r"(?m)^([^,\n]*,)[^,\n]*")}
CASES = [(command, fmt, variants, bases)
         for command, fmts, variants, bases in GROUPS for fmt in fmts]


def case_prefix(command, fmt):
    return " ".join(command + ((fmt,) if fmt else ())) + " "


def run_cases(command, fmt, variants, bases, directory):
    """{case key: [exit code, stdout sha256]} over base, n and variant."""
    out = {}
    flags = ["--output-format", fmt] if fmt else []
    mask = MASKS.get((command[0], fmt))
    _, build, ns = bases
    for name, graph in build().items():
        path = directory / f"{name}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges))
        for label, extra in variants(name, graph, directory):
            for n in ns:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main([command[0], str(path), *command[1:],
                                     "--n", str(n), *extra, *flags])
                text = buffer.getvalue()
                if mask is not None:
                    text = mask.sub(r"\1*", text)
                digest = hashlib.sha256(text.encode()).hexdigest()
                key = f"{case_prefix(command, fmt)}{name} n={n} {label}"
                out[key] = [code, digest]
    return out


@pytest.mark.parametrize("command, fmt, variants, bases", CASES, ids=[
    "-".join([word.lstrip("-") for word in case_prefix(c, f).split()]
             + ([b[0]] if b[0] else []))
    for c, f, _, b in CASES])
def test_stdout_matches_golden(command, fmt, variants, bases, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    prefix = case_prefix(command, fmt)
    names = set(bases[1]())
    want = {key: value for key, value in golden["cases"].items()
            if key.startswith(prefix)
            and key[len(prefix):].split(" ", 1)[0] in names}
    got = run_cases(command, fmt, variants, bases, tmp_path)
    assert got.keys() == want.keys()
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, (
        f"{len(changed)} of {len(want)} outputs changed (digests recorded "
        f"under Python {golden['python']}, numpy {golden['numpy']}): "
        f"{changed[:5]}")


if __name__ == "__main__":
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, fmt, variants, bases in CASES:
            cases.update(run_cases(command, fmt, variants, bases, Path(tmp)))
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(cases[key])}"
                      for key in sorted(cases))
    GOLDEN.write_text(
        f'{{"python": "{platform.python_version()}", '
        f'"numpy": "{np.__version__}",\n "cases": {{\n{rows}\n }}}}\n')
    print(f"recorded {len(cases)} cases in {GOLDEN}", file=sys.stderr)
