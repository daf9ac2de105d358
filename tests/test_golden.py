"""Byte-equality gate on CLI stdout.

golden_stdout.json holds the exit code and the sha256 digest of stdout
for every conftest corpus graph with n in 2..7: `spectrum`, `invariants`
and `invariants --exact` in both output formats with g in 0..2, `verify`
in both formats with g in 0..1, and `transform` with g in 0..2. Base
eigenvalues come from LAPACK, so the digests belong to the Python and
numpy versions recorded with them. verify's `max_abs_deviation` is
rounding noise between two eigensolves, which also moves with the CPU
and the BLAS thread count, so its value is masked before hashing; the
oracle and acceptance tests bound it by tolerance. After a deliberate
output change, record the digests again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ngonspec import cli

from conftest import build_corpus

GOLDEN = Path(__file__).with_name("golden_stdout.json")
FORMATS = ("json", "csv")
# (command with its flags, output formats, generations); transform ignores
# the output format, so its keys carry none. verify stops at g = 1: g = 2
# builds and eigensolves graphs of up to 820 vertices, and one format of
# it takes about 10 s against 0.7 s for g in 0..1.
GROUPS = ((("spectrum",), FORMATS, 3),
          (("invariants",), FORMATS, 3),
          (("invariants", "--exact"), FORMATS, 3),
          (("verify",), FORMATS, 2),
          (("transform",), (None,), 3))
DEVIATION = re.compile(r"(max_abs_deviation\W+)[^,\n]+")
CASES = [(command, fmt, gens) for command, fmts, gens in GROUPS
         for fmt in fmts]


def case_prefix(command, fmt):
    return " ".join(command + ((fmt,) if fmt else ())) + " "


def run_cases(command, fmt, gens, directory):
    """{case key: [exit code, stdout sha256]} over the corpus, n and g."""
    out = {}
    flags = ["--output-format", fmt] if fmt else []
    for name, graph in build_corpus().items():
        path = directory / f"{name}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges))
        for n in range(2, 8):
            for g in range(gens):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main([command[0], str(path), *command[1:],
                                     "--n", str(n), "--g", str(g), *flags])
                text = buffer.getvalue()
                if command[0] == "verify":
                    text = DEVIATION.sub(r"\1*", text)
                digest = hashlib.sha256(text.encode()).hexdigest()
                key = f"{case_prefix(command, fmt)}{name} n={n} g={g}"
                out[key] = [code, digest]
    return out


@pytest.mark.parametrize("command, fmt, gens", CASES, ids=[
    "-".join(word.lstrip("-") for word in case_prefix(c, f).split())
    for c, f, _ in CASES])
def test_stdout_matches_golden(command, fmt, gens, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    want = {key: value for key, value in golden["cases"].items()
            if key.startswith(case_prefix(command, fmt))}
    got = run_cases(command, fmt, gens, tmp_path)
    assert got.keys() == want.keys()
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, (
        f"{len(changed)} of {len(want)} outputs changed (digests recorded "
        f"under Python {golden['python']}, numpy {golden['numpy']}): "
        f"{changed[:5]}")


if __name__ == "__main__":
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, fmt, gens in CASES:
            cases.update(run_cases(command, fmt, gens, Path(tmp)))
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(cases[key])}"
                      for key in sorted(cases))
    GOLDEN.write_text(
        f'{{"python": "{platform.python_version()}", '
        f'"numpy": "{np.__version__}",\n "cases": {{\n{rows}\n }}}}\n')
    print(f"recorded {len(cases)} cases in {GOLDEN}", file=sys.stderr)
