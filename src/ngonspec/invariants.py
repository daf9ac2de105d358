"""Random-walk invariants from spectra and from the growth closed forms.

Covered: the multiplicative degree-Kirchhoff index (2E times the sum of
reciprocal nonzero normalized-Laplacian eigenvalues), Kemeny's constant
(that same sum), and spanning-tree counts. Closed forms advance all three
across generations using only base-graph quantities. Spanning-tree
arithmetic is exact integer end to end; the spectrum-side tree count is a
floating-point advisory. An exact rational mode recovers values like 14/3
for desk-size graphs via the characteristic polynomial of the walk
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .graphs import Graph, predict_counts
from .spectrum import ZERO_CODE, Spectrum, SpectrumContext

METHOD_SPECTRUM = "from-spectrum"
METHOD_CLOSED = "closed-form"


@dataclass(frozen=True)
class InvariantReport:
    kirchhoff_multiplicative: float | Fraction
    kemeny: float | Fraction
    spanning_trees: int | None
    spanning_trees_float: float | None
    method: str
    generation: int


def _as_kind(value: Fraction, like):
    """Exact result for Fraction inputs, float otherwise."""
    return value if isinstance(like, Fraction) else float(value)


def invariants_from_spectrum(spec: Spectrum, ctx: SpectrumContext, degrees,
                             generation: int = 0) -> InvariantReport:
    """Invariants straight from eigenvalue sums (binary64 arithmetic).

    degrees may be the per-vertex degree sequence or the precomputed degree
    product. The tree count from the eigenvalue product is advisory: it is
    reported as a float (and rounded when finite) but is numerically
    fragile for large graphs.
    """
    product = degrees if isinstance(degrees, int) else math.prod(degrees)
    zero = spec.sources == ZERO_CODE
    zero_mult = sum(spec.multiplicities[zero].tolist())
    if zero_mult != 1:
        raise ValueError(f"0 must have multiplicity 1, found {zero_mult}")
    reciprocal = 0.0
    log_product = 0.0
    for value, mult in zip(spec.values[~zero].tolist(),
                           spec.multiplicities[~zero].tolist()):
        reciprocal += mult / value
        log_product += mult * math.log(value)
    kirchhoff = 2 * ctx.edges * reciprocal
    log_trees = math.log(product) + log_product - math.log(2 * ctx.edges)
    try:
        trees_float = math.exp(log_trees)
    except OverflowError:
        trees_float = math.inf
    trees = round(trees_float) if math.isfinite(trees_float) else None
    return InvariantReport(kirchhoff, reciprocal, trees, trees_float,
                           METHOD_SPECTRUM, generation)


def kirchhoff_step(kf0, n0: int, e0: int, n: int):
    """One-generation closed form for the multiplicative Kirchhoff index."""
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    extra = (Fraction(2 * (n + 1) * (n * n - 1), 3) * e0 * e0
             - Fraction(2 * (n * n - 1), 3) * e0 * n0
             - Fraction((n * n - 1) * (n - 2), 3) * e0)
    return (n * n + n) * kf0 + _as_kind(extra, kf0)


def kirchhoff_closed(kf0, n0: int, e0: int, n: int, g: int):
    """General-g closed form; g = 1 agrees with kirchhoff_step."""
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


def kemeny_step(k0, n0: int, e0: int, n: int):
    """One-generation closed form for Kemeny's constant."""
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    extra = (Fraction((n * n - 1) * e0, 3) - Fraction((n - 1) * n0, 3)
             - Fraction((n - 1) * (n - 2), 6))
    return n * k0 + _as_kind(extra, k0)


def kemeny_closed(k0, n0: int, e0: int, n: int, g: int):
    """General-g closed form; equals kirchhoff_closed / (2 E_g)."""
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


def spanning_trees_step(nst0: int, n0: int, e0: int, n: int) -> int:
    """One-generation spanning-tree count, exact."""
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    if e0 < n0 - 1:
        raise ValueError(f"counts N={n0}, E={e0} cannot be connected")
    return (n + 1) ** (n0 - 1) * n ** (e0 - n0 + 1) * nst0


def spanning_trees_closed(nst0: int, n0: int, e0: int, n: int, g: int) -> int:
    """General-g spanning-tree count, exact; g = 1 agrees with the step form.

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


def degree_product_closed(p0: int, n0: int, e0: int, n: int, g: int) -> int:
    """Degree product of the g-th transform, from the degree law alone.

    Each step doubles every existing degree and adds (n-1)E new vertices of
    degree 2, which multiplies the product by 2 to the new vertex count.
    """
    if g < 0:
        raise ValueError(f"generation must be nonnegative, got {g}")
    shift = 0
    for t in range(1, g + 1):
        shift += predict_counts(n0, e0, n, t).vertices
    return p0 << shift


def _mat_mul(a, b):
    size = len(a)
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        row = a[i]
        out_row = out[i]
        for k in range(size):
            f = row[k]
            if f:
                b_row = b[k]
                for j in range(size):
                    out_row[j] += f * b_row[j]
    return out


def _charpoly(mat) -> list[Fraction]:
    """det(xI - M) by the Faddeev-LeVerrier iteration, ascending coefficients."""
    size = len(mat)
    coeffs = [Fraction(0)] * (size + 1)
    coeffs[size] = Fraction(1)
    aux = [[Fraction(0)] * size for _ in range(size)]
    for k in range(1, size + 1):
        prod = _mat_mul(mat, aux)
        for i in range(size):
            prod[i][i] += coeffs[size - k + 1]
        trace = sum(sum(mat[i][j] * prod[j][i] for j in range(size))
                    for i in range(size))
        coeffs[size - k] = -trace / k
        aux = prod
    return coeffs


def exact_invariants(graph: Graph) -> tuple[Fraction, Fraction, int]:
    """Exact (kirchhoff, kemeny, spanning_trees) for a desk-size graph.

    Works from the characteristic polynomial of I - D^{-1}A in rational
    arithmetic: Kemeny's constant is -c2/c1 after the zero eigenvalue is
    factored out, and the nonzero eigenvalue product gives the tree count.
    Cost grows like N^4, so keep N modest.
    """
    if not graph.connected:
        raise ValueError("invariants require a connected graph")
    count = graph.vertex_count
    walk = [[Fraction(0)] * count for _ in range(count)]
    for i in range(count):
        walk[i][i] = Fraction(1)
    for u, v in graph.edges:
        walk[u][v] = -Fraction(1, graph.degrees[u])
        walk[v][u] = -Fraction(1, graph.degrees[v])
    coeffs = _charpoly(walk)
    if coeffs[0] != 0:
        raise RuntimeError("walk operator lost its zero eigenvalue")
    kemeny = -coeffs[2] / coeffs[1]
    edges = len(graph.edges)
    kirchhoff = 2 * edges * kemeny
    nonzero_product = (-1) ** (count - 1) * coeffs[1]
    trees = nonzero_product * degree_product(graph) / (2 * edges)
    if trees.denominator != 1 or trees < 1:
        raise RuntimeError(f"tree count came out as {trees}")
    return kirchhoff, kemeny, int(trees)
