"""The benchmark's own self-test, run with the test suite.

perfbench/tracing.py wraps ngonspec functions by name and its hooks read
some of their arguments and results, so renaming one of them, or a field
a hook reads, fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("smoke: ok")
