"""Bit-identity gate on the float roots.

golden_roots.json holds the sha256 digest of the bytes of
roots.solve_lambda_many(n, grid) for n in 2..40, 47, 64, 101 and 500 on
three seeded eigenvalue grids, and of roots.roots_of_family for every
family kind and every matching n up to 64. The stdout goldens reach only
n <= 7 and four lift values of n, so a change to the root solver that
moves one bit at another n would pass them; this gate does not let it.
The digests belong to the Python and numpy versions recorded with them.
After a deliberate change to the roots, record them again with

    PYTHONPATH=src python tests/test_roots_golden.py
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from ngonspec import roots
from ngonspec.roots import FamilyKind, RootFamily

GOLDEN = Path(__file__).with_name("golden_roots.json")
TRANSFER_N = (*range(2, 41), 47, 64, 101, 500)
FAMILY_N = range(2, 65)
GRID_SIZE = 64


def grids() -> dict:
    """Seeded eigenvalue grids: inside (0, 2), near 0 and near 2."""
    def draw(seed, low, high):
        return np.random.default_rng(seed).uniform(low, high, GRID_SIZE)
    return {"uniform": draw(1, 1e-6, 2.0 - 1e-6),
            "log-uniform": 10.0 ** draw(2, -300.0, -1.0),
            "near-two": 2.0 - 10.0 ** draw(3, -12.0, -1.0)}


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def transfer_digests() -> dict:
    return {name: {str(n): digest(roots.solve_lambda_many(n, grid))
                   for n in TRANSFER_N}
            for name, grid in grids().items()}


def family_digests() -> dict:
    return {kind.value: {str(n): digest(roots.roots_of_family.__wrapped__(
                             RootFamily(kind, n)))
                         for n in FAMILY_N if bool(n % 2) == kind.odd}
            for kind in FamilyKind}


def changed(got: dict, want: dict) -> list:
    assert got.keys() == want.keys()
    return [f"{group} n={n}" for group in want for n in want[group]
            if got[group].get(n) != want[group][n]]


def test_transfer_roots_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert not changed(transfer_digests(), golden["transfer"])


def test_family_roots_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert not changed(family_digests(), golden["family"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "python": platform.python_version(), "numpy": np.__version__,
        "transfer": transfer_digests(), "family": family_digests()},
        indent=1) + "\n")
    print(f"recorded root digests in {GOLDEN}", file=sys.stderr)
