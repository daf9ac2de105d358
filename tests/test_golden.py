"""Byte-equality gate on CLI stdout.

golden_stdout.json holds the exit code and the sha256 digest of stdout of
`spectrum` and `invariants`, in both output formats, for every conftest
corpus graph with n in 2..7 and g in 0..2. Base eigenvalues come from
LAPACK, so the digests belong to the Python and numpy versions recorded
with them. After a deliberate output change, record them again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ngonspec import cli

from conftest import build_corpus

GOLDEN = Path(__file__).with_name("golden_stdout.json")
COMMANDS = ("spectrum", "invariants")
FORMATS = ("json", "csv")


def run_cases(command, fmt, directory):
    """{case key: [exit code, stdout sha256]} over the corpus, n and g."""
    out = {}
    for name, graph in build_corpus().items():
        path = directory / f"{name}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges))
        for n in range(2, 8):
            for g in range(3):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main([command, str(path), "--n", str(n),
                                     "--g", str(g), "--output-format", fmt])
                digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
                out[f"{command} {fmt} {name} n={n} g={g}"] = [code, digest]
    return out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command, fmt, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    want = {key: value for key, value in golden["cases"].items()
            if key.startswith(f"{command} {fmt} ")}
    got = run_cases(command, fmt, tmp_path)
    assert got.keys() == want.keys()
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, (
        f"{len(changed)} of {len(want)} outputs changed (digests recorded "
        f"under Python {golden['python']}, numpy {golden['numpy']}): "
        f"{changed[:5]}")


if __name__ == "__main__":
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for fmt in FORMATS:
                cases.update(run_cases(command, fmt, Path(tmp)))
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(cases[key])}"
                      for key in sorted(cases))
    GOLDEN.write_text(
        f'{{"python": "{platform.python_version()}", '
        f'"numpy": "{np.__version__}",\n "cases": {{\n{rows}\n }}}}\n')
    print(f"recorded {len(cases)} cases in {GOLDEN}", file=sys.stderr)
