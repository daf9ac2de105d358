"""Random-walk invariants from spectra and from the growth closed forms.

Covered: the multiplicative degree-Kirchhoff index (2E times the sum of
reciprocal nonzero normalized-Laplacian eigenvalues), Kemeny's constant
(that same sum), and spanning-tree counts. Closed forms advance all three
across generations using only base-graph quantities. Spanning-tree
arithmetic is exact integer end to end; the spectrum-side tree count is a
floating-point advisory. An exact rational mode recovers base values like
14/3 from the resistance form of the Kirchhoff index, evaluated by the
oracle's one modular elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import oracle
from .graphs import Graph, GrowthCounts
from .spectrum import ZERO_CODE, Spectrum


@dataclass(frozen=True)
class InvariantReport:
    kirchhoff_multiplicative: float | Fraction
    kemeny: float | Fraction
    spanning_trees: int | None


def _as_kind(value: Fraction, like):
    """Exact result for Fraction inputs, float otherwise."""
    return value if isinstance(like, Fraction) else float(value)


def _running_sum(terms) -> float:
    """0.0 + terms[0] + terms[1] + ... left to right, as a Python loop adds.

    np.add.accumulate keeps that order, where np.sum pairs terms up.
    """
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def invariants_from_spectrum(spec: Spectrum, counts: GrowthCounts,
                             product: int) -> InvariantReport:
    """Invariants straight from eigenvalue sums (binary64 arithmetic).

    product is the graph's degree product. The tree count from the
    eigenvalue product is advisory: it is rounded from a float (None past
    float range) and is numerically fragile for large graphs.
    """
    zero = spec.sources == ZERO_CODE
    zero_mult = sum(spec.multiplicities[zero].tolist())
    if zero_mult != 1:
        raise ValueError(f"0 must have multiplicity 1, found {zero_mult}")
    values = spec.values[~zero]
    mults = spec.multiplicities[~zero].astype(float)
    logs = np.fromiter(map(math.log, values.tolist()), float, len(values))
    reciprocal = _running_sum(mults / values)
    log_product = _running_sum(mults * logs)
    kirchhoff = 2 * counts.edges * reciprocal
    log_trees = math.log(product) + log_product - math.log(2 * counts.edges)
    try:
        trees = round(math.exp(log_trees))
    except OverflowError:
        trees = None
    return InvariantReport(kirchhoff, reciprocal, trees)


def kirchhoff_closed(kf0, n0: int, e0: int, n: int, g: int):
    """Multiplicative Kirchhoff index after g growth steps."""
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    if g < 1:
        raise ValueError(f"generation must be at least 1, got {g}")
    power = (n + 1) ** g
    ng = n ** g
    bracket = power * (n * n + 1) - n ** (g + 2) - 1
    extra = (Fraction(2 * (n - 1) * power * bracket, 3 * n) * e0 * e0
             - Fraction((n - 2) * power * (ng - 1), 3) * e0
             - Fraction(2 * power * (ng - 1), 3) * e0 * n0)
    return (n * n + n) ** g * kf0 + _as_kind(extra, kf0)


def kemeny_closed(k0, n0: int, e0: int, n: int, g: int):
    """Kemeny's constant after g steps; equals kirchhoff_closed / (2 E_g)."""
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    if g < 1:
        raise ValueError(f"generation must be at least 1, got {g}")
    ng = n ** g
    bracket = (n + 1) ** g * (n * n + 1) - n ** (g + 2) - 1
    extra = (Fraction((n - 1) * bracket * e0, 3 * n)
             - Fraction((ng - 1) * n0, 3)
             - Fraction((n - 2) * (ng - 1), 6))
    return ng * k0 + _as_kind(extra, k0)


def spanning_trees_closed(nst0: int, n0: int, e0: int, n: int, g: int) -> int:
    """Spanning-tree count after g growth steps, exact.

    Both exponents carry a division by n*n that is always exact; a failed
    divisibility check means the formula was fed inconsistent inputs.
    """
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    if g < 1:
        raise ValueError(f"generation must be at least 1, got {g}")
    power = (n + 1) ** g
    bx = power - n * g - 1
    by = power + g * n * (n - 1) - 1
    if bx % (n * n) or by % (n * n):
        raise RuntimeError("exponent divisibility failed")
    x = (n - 1) * (bx // (n * n)) * e0 + g * n0 - g
    y = (by // (n * n)) * e0 - g * n0 + g
    if x < 0 or y < 0:
        raise RuntimeError(f"negative exponent: x={x}, y={y}")
    return (n + 1) ** x * n ** y * nst0


def degree_product(graph: Graph) -> int:
    return math.prod(graph.degrees)


def degree_product_closed(p0: int, counts: GrowthCounts, n: int,
                          g: int) -> int:
    """Degree product of the g-th transform of a base graph with degree
    product p0 and the given counts, from the degree law alone.

    Each step doubles every existing degree and adds (n-1)E new vertices of
    degree 2, which multiplies the product by 2 to the new vertex count.
    """
    if g < 0:
        raise ValueError(f"generation must be nonnegative, got {g}")
    return p0 << sum(counts.grown(n, t).vertices for t in range(1, g + 1))


def exact_invariants(graph: Graph) -> tuple[Fraction, Fraction, int]:
    """Exact (kirchhoff, kemeny, spanning_trees) of a base graph.

    oracle.kirchhoff_tree_count eliminates [L0 | I] modulo primes, skips
    those dividing tau and joins tau and Kf * tau by CRT; Kemeny's constant
    is Kf / (2E). The vertex cap is that of oracle.matrix_tree_count.
    """
    kirchhoff, trees = oracle.kirchhoff_tree_count(graph)
    return kirchhoff, kirchhoff / (2 * len(graph.edges)), trees
