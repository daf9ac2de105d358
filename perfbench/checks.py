"""Output checks, one per subcommand.

Each check returns None for a correct output and a short reason otherwise.
The reference figures come from the benchmark's own growth formulas and
numpy eigensolves of the base graphs, not from ngonspec.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import Base, Op, grown_counts, kemeny_closed

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def _number(x) -> float:
    """Exact invariants print as rational strings, the others as floats."""
    return float(Fraction(x)) if isinstance(x, str) else float(x)


def _csv_rows(out: str, header: str) -> list[list[str]]:
    # Fields never hold commas or quotes; split by hand because csv's field
    # size limit is far below the digit count of large tree counts.
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("csv header missing")
    return [line.split(",") for line in lines[1:]]


def _spectrum(base: Base, op: Op, out: str) -> str | None:
    vertices, _ = grown_counts(base.vertex_count, base.edge_count, op.n, op.g)
    if op.csv:
        rows = _csv_rows(out, "value,multiplicity,source")
        values = [float(r[0]) for r in rows]
        mults = [int(r[1]) for r in rows]
    else:
        doc = json.loads(out)
        if doc["meta"]["N"] != str(vertices):
            return f"meta N {doc['meta']['N']} != {vertices}"
        values = [e["value"] for e in doc["spectrum"]]
        mults = [int(e["multiplicity"]) for e in doc["spectrum"]]
    if sum(mults) != vertices:
        return f"multiplicities sum to {sum(mults)}, expected {vertices}"
    if not all(0.0 <= v <= 2.0 for v in values):
        return "eigenvalue outside [0, 2]"
    if any(a > b for a, b in zip(values, values[1:])):
        return "eigenvalues not sorted"
    kemeny = math.fsum(m / v for v, m in zip(values, mults) if v != 0)
    expected = kemeny_closed(base.kemeny, base.vertex_count, base.edge_count,
                             op.n, op.g)
    if not _close(kemeny, expected):
        return f"sum m/lambda {kemeny!r} != Kemeny closed form {expected!r}"
    return None


def _invariants(base: Base, op: Op, out: str) -> str | None:
    # The from-spectrum tree count is left out: ngonspec documents it as a
    # float advisory, and it misses 1e-9 from n = 22 on 30..80-vertex bases.
    keys = ("generation", "method", "kirchhoff", "kemeny", "spanning_trees")
    if op.csv:
        rows = [dict(zip(keys, r)) for r in _csv_rows(out, ",".join(keys))]
        for r in rows:
            r["generation"] = int(r["generation"])
    else:
        rows = json.loads(out)["invariants"]["generations"]
    closed = {r["generation"]: r for r in rows if r["method"] == "closed-form"}
    spectral = {r["generation"]: r for r in rows
                if r["method"] == "from-spectrum"}
    if sorted(closed) != list(range(1, op.g + 1)) or 0 not in spectral:
        return "generation rows missing"
    if not _close(_number(spectral[0]["kemeny"]), base.kemeny):
        return f"base Kemeny {spectral[0]['kemeny']} != {base.kemeny!r}"
    for t, row in spectral.items():
        if t == 0:
            continue
        ref = closed[t]
        for key in ("kirchhoff", "kemeny"):
            if not _close(_number(row[key]), _number(ref[key])):
                return (f"g={t} {key}: from-spectrum {row[key]} vs "
                        f"closed form {ref[key]}")
    return None


def _verify(base: Base, op: Op, out: str) -> str | None:
    if json.loads(out)["spectrum"]["matched"] is not True:
        return "spectra not matched"
    return None


def _transform(base: Base, op: Op, out: str) -> str | None:
    vertices, edges = grown_counts(base.vertex_count, base.edge_count,
                                   op.n, op.g)
    ids = [int(x) for x in out.split()]
    if len(ids) != 2 * edges or out.count("\n") != edges:
        return f"{len(ids) // 2} edges, expected {edges}"
    if max(ids) + 1 != vertices or min(ids) != 0:
        return f"vertex ids span {min(ids)}..{max(ids)}, expected {vertices}"
    return None


_CHECKS = {
    "spectrum": _spectrum,
    "invariants": _invariants,
    "verify": _verify,
    "transform": _transform,
    "lift": lambda base, op, out: None,
}


def check(base: Base, op: Op, code: int, out: str) -> str | None:
    """Why this op's result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[op.command](base, op, out)
    except (ValueError, KeyError, TypeError, IndexError,
            ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
