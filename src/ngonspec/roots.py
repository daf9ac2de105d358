"""Real roots in (0, 2) of the fixed recurrence-family polynomials and of
the per-eigenvalue transfer equation, in the angle form x = 1 - cos(theta).

With a_k(x) = U_k(1 - x), the family roots are closed forms theta = (p*j -
o) pi/q, and the transfer equation of eigenvalue lam becomes F(theta) =
cos((n+1)theta/2) + (lam-1) cos((n-1)theta/2) = 0. As |lam - 1| < 1, F has
sign (-1)^k at theta_k = 2k pi/(n+1), so [theta_{k-1}, min(theta_k, pi)]
for k = 1..(n+1)//2 are guaranteed brackets, one root each, and one
vectorized safeguarded Newton iteration solves them all. F is evaluated as
lam cos((n-1)theta/2) - 2 sin(n theta/2) sin(theta/2), free of
cancellation at small theta. Every root is mapped to x without
cancellation and finished by one x-domain Newton step through the
three-term recurrence, kept only inside its bracket. The exact
polynomials serve the identity suites.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import aseries

NEWTON_MAX_STEPS = 100  # safeguarded steps; about 5 suffice
NEWTON_RTOL = 4 * np.finfo(float).eps


class RootIsolationError(RuntimeError):
    """A computed root escaped the open interval (0, 2)."""


class FamilyKind(enum.Enum):
    ODD_ZERO = "odd-zero"      # a_{(n-1)/2} = 0
    ODD_PLUS = "odd-plus"      # a_{(n-1)/2} + a_{(n-3)/2} = 0
    ODD_MINUS = "odd-minus"    # a_{(n-1)/2} - a_{(n-3)/2} = 0
    EVEN_PLUS = "even-plus"    # a_{n/2} + a_{n/2-1} = 0
    EVEN_ZERO = "even-zero"    # a_{n/2-1} = 0
    EVEN_MINUS = "even-minus"  # a_{n/2} - a_{n/2-2} = 0

    @property
    def odd(self) -> bool:
        return self in (FamilyKind.ODD_ZERO, FamilyKind.ODD_PLUS,
                        FamilyKind.ODD_MINUS)


@dataclass(frozen=True)
class RootFamily:
    kind: FamilyKind
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"polygon parameter must be at least 2, got {self.n}")
        if self.kind.odd != bool(self.n % 2):
            raise ValueError(f"family {self.kind.value} does not match n={self.n}")


@dataclass(frozen=True)
class RootSet:
    """Sorted real roots of one polynomial, with checksums over the roots."""

    label: str
    roots: tuple[float, ...]
    reciprocal_sum: float
    product: float


def _checksummed(label: str, roots) -> RootSet:
    ordered = tuple(sorted(float(r) for r in roots))
    outside = [r for r in ordered if not 0.0 < r < 2.0]
    if outside:
        raise RootIsolationError(f"roots of {label} escaped (0, 2): {outside}")
    reciprocal = sum(1.0 / r for r in ordered)
    product = 1.0
    for r in ordered:
        product *= r
    return RootSet(label, ordered, reciprocal, product)


def family_polynomial(family: RootFamily) -> list[Fraction]:
    """Exact coefficients of the family's defining polynomial."""
    n = family.n
    kind = family.kind
    if kind is FamilyKind.ODD_ZERO:
        terms = [(1, (n - 1) // 2)]
    elif kind is FamilyKind.ODD_PLUS:
        terms = [(1, (n - 1) // 2), (1, (n - 3) // 2)]
    elif kind is FamilyKind.ODD_MINUS:
        terms = [(1, (n - 1) // 2), (-1, (n - 3) // 2)]
    elif kind is FamilyKind.EVEN_PLUS:
        terms = [(1, n // 2), (1, n // 2 - 1)]
    elif kind is FamilyKind.EVEN_ZERO:
        terms = [(1, n // 2 - 1)]
    else:
        terms = [(1, n // 2), (-1, n // 2 - 2)]
    return aseries.linear_combination(terms)


def _x_of_theta(theta):
    """1 - cos(theta) without cancellation near theta = 0."""
    return np.where(theta < np.pi / 2, 2.0 * np.sin(0.5 * theta) ** 2,
                    1.0 - np.cos(theta))


def _recurrence(x, top: int, pair: bool = False):
    """(a_k, d_k, a_k', d_k') at k = top, plus the same at top - 1 if pair.

    Reinsch's difference form d_k = a_k - a_{k-1} = d_{k-1} - 2x a_{k-1}
    keeps values near x = 0 accurate.
    """
    zero = np.zeros_like(x)
    prev = cur = (zero, zero + 1.0, zero, zero)  # k = -1: a = 0, d = 1
    for _ in range(top + 1):
        a, d, da, dd = cur
        d_next = d - 2.0 * x * a
        dd_next = dd - 2.0 * a - 2.0 * x * da
        prev, cur = cur, (a + d_next, d_next, da + dd_next, dd_next)
    if pair:
        return tuple(u + v for u, v in zip(prev, cur))
    return cur


def _polish(x, lo, hi, value):
    """One x-domain Newton step, kept only where it stays inside [lo, hi]."""
    f, df = value(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = x - f / df
    ok = np.isfinite(newton) & (newton >= lo) & (newton <= hi)
    return np.where(ok, newton, x)


def _family_form(kind: FamilyKind, m: int):
    """(p, o, q, top, pair, diff) of the family at m = n // 2: the roots
    theta_j = (p*j - o) pi/q, j = 1..top, of a_top (+ a_{top-1} if pair),
    or of d_top (+ d_{top-1}) if diff."""
    return {
        FamilyKind.ODD_ZERO: (1, 0, m + 1, m, False, False),
        FamilyKind.ODD_PLUS: (2, 0, 2 * m + 1, m, True, False),
        FamilyKind.ODD_MINUS: (2, 1, 2 * m + 1, m, False, True),
        FamilyKind.EVEN_PLUS: (2, 0, 2 * m + 1, m, True, False),
        FamilyKind.EVEN_ZERO: (1, 0, m, m - 1, False, False),
        FamilyKind.EVEN_MINUS: (2, 1, 2 * m, m, True, True),
    }[kind]


def roots_of_family(family: RootFamily) -> RootSet:
    """All real roots of the family polynomial, from their closed forms."""
    p, o, q, top, pair, diff = _family_form(family.kind, family.n // 2)
    theta = (p * np.arange(1, top + 1) - o) * np.pi / q
    half_gap = 0.5 * p * np.pi / q
    roots = _polish(_x_of_theta(theta), _x_of_theta(theta - half_gap),
                    _x_of_theta(theta + half_gap),  # (a, a') or (d, d'):
                    lambda x: _recurrence(x, top, pair)[diff::2])
    return _checksummed(f"{family.kind.value} n={family.n}", roots)


def lambda_polynomial(n: int, lam) -> list[Fraction]:
    """Exact cleared-denominator transfer polynomial for eigenvalue lam.

    Its roots are the new eigenvalues that the base eigenvalue lam spawns:
    (n+1)/2 of them for odd n, n/2 for even n.
    """
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    lam = Fraction(lam)
    if lam <= 0 or lam >= 2:
        raise ValueError(
            f"eigenvalue must lie strictly inside (0, 2), got {float(lam)}")
    if n % 2:
        m = (n - 1) // 2
        terms = [(1, m + 1), (-1, m - 1), (lam - 1, m), (1 - lam, m - 2)]
    else:
        m = n // 2
        terms = [(1, m), (lam - 2, m - 1), (1 - lam, m - 2)]
    return aseries.linear_combination(terms)


def _edge_angle(n: int, c):
    """phi = 2u/n for u tan u = c: u ~ sqrt(c) for small c, pi/2 for large."""
    return 2.0 / n * np.sqrt(c / (1.0 + 4.0 * c / np.pi ** 2))


def solve_lambda_many(n: int, lams) -> np.ndarray:
    """Transfer-equation roots for every lam at once; shape (len(lams), deg).

    Rows keep the order of lams; roots within a row are ascending. Each
    element stops on its own, so a row does not depend on the batch.
    """
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    lams = np.asarray(lams, dtype=float)
    if not np.all((lams > 0.0) & (lams < 2.0)):
        raise ValueError("eigenvalues must lie strictly inside (0, 2)")
    degree = (n + 1) // 2
    if lams.size == 0:
        return np.empty((0, degree))
    k = np.arange(1, degree + 1)
    edges = np.minimum(2.0 * np.arange(degree + 1) * np.pi / (n + 1), np.pi)
    lo = np.tile(edges[:-1], (lams.size, 1))
    hi = np.tile(edges[1:], (lams.size, 1))
    lo_sign = np.where(k % 2, 1.0, -1.0)  # sign of F at theta_{k-1}
    lam = lams[:, None]
    # Start from tan(n theta/2) tan(theta/2) = r, an equivalent form of F = 0,
    # with tan(theta/2) frozen at the bracket midpoint. Near theta = 0, and
    # near pi for odd n, F is flat and Newton would crawl, so there the guess
    # takes tan(phi/2) ~ phi/2 for phi = theta (or pi - theta, with 1/r).
    r = lams / (2.0 - lams)
    theta = 2.0 / n * ((k - 1) * np.pi + np.arctan(
        r[:, None] / np.tan((k - 0.5) * np.pi / (n + 1))))
    theta[:, 0] = _edge_angle(n, n * r)
    if n % 2:
        theta[:, -1] = np.pi - _edge_angle(n, n / r)
    active = np.ones(theta.shape, dtype=bool)
    for _ in range(NEWTON_MAX_STEPS):
        su, cu = np.sin(0.5 * n * theta), np.cos(0.5 * n * theta)
        sv, cv = np.sin(0.5 * theta), np.cos(0.5 * theta)
        near, far = lam * (cu * cv + su * sv), 2.0 * su * sv
        f = near - far
        # at rounding level F gives no further information
        settled = np.abs(f) <= NEWTON_RTOL * (np.abs(near) + np.abs(far))
        df = (-0.5 * (n - 1) * lam * (su * cv - cu * sv)
              - n * cu * sv - su * cv)
        below = f * lo_sign > 0.0
        lo = np.where(below, theta, lo)
        hi = np.where(below, hi, theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = theta - f / df
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        moved = np.abs(step - theta) > NEWTON_RTOL * step
        theta = np.where(active & ~settled, step, theta)
        active &= moved & ~settled
        if not active.any():
            break

    def value(x):
        # lambda_polynomial in difference form, lam (d_m + d_{m-1}) - 2x (a_m
        # + a_{m-1}) for n = 2m + 1 and lam d_{m-1} - 2x a_{m-1} for n = 2m:
        # about lam near x = 0, with no cancellation
        a, d, da, dd = _recurrence(x, (n - 1) // 2, pair=bool(n % 2))
        return lam * d - 2.0 * x * a, lam * dd - 2.0 * a - 2.0 * x * da

    return _polish(_x_of_theta(theta), _x_of_theta(edges[:-1]),
                   _x_of_theta(edges[1:]), value)


def solve_lambda_equation(n: int, lam) -> RootSet:
    """All transfer-equation roots for one eigenvalue, sorted, inside (0, 2)."""
    row = solve_lambda_many(n, [float(lam)])[0]
    return _checksummed(f"lambda={float(lam):.17g} n={n}", row)


def vieta_sums(poly) -> tuple[Fraction, Fraction]:
    """Exact (sum of reciprocal roots, product of roots) from coefficients.

    Trailing zero coefficients are trimmed first; a zero constant term is
    rejected because a root at zero has no reciprocal.
    """
    coeffs = [Fraction(c) for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs or coeffs[0] == 0:
        raise ValueError("constant coefficient is zero (zero root present)")
    degree = len(coeffs) - 1
    product = Fraction((-1) ** degree) * coeffs[0] / coeffs[-1]
    reciprocal = -coeffs[1] / coeffs[0] if degree >= 1 else Fraction(0)
    return reciprocal, product
