"""The recurrence family a_n(x) = 2(1-x) a_{n-1}(x) - a_{n-2}(x).

Starts from a_{-1} = 0 and a_0 = 1; a_n is a degree-n polynomial (a
second-kind Chebyshev polynomial in 1-x). Evaluation keeps the numeric
kind of its argument, so Fractions stay exact and floats stay floats, and
the polynomials themselves are available with exact integer coefficients.
Exact rational linear combinations of several indices cover every fixed
family and transfer polynomial built downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ASeriesPoly:
    """Exact integer coefficients of a_n, ascending powers; empty for n = -1."""

    n: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def eval_a(n: int, mu):
    """Value of a_n at mu via the forward recurrence.

    The result carries the numeric kind of mu: float in, float out;
    Fraction (or int) in, exact value out.
    """
    if n < -1:
        raise ValueError(f"index must be >= -1, got {n}")
    prev = 0 * mu  # a_{-1} in the numeric kind of mu
    if n == -1:
        return prev
    cur = prev + 1  # a_0
    step = 2 * (1 - mu)
    for _ in range(n):
        prev, cur = cur, step * cur - prev
    return cur


def coeffs_a(n: int) -> ASeriesPoly:
    """Exact integer coefficient vector of a_n (n = -1 is the zero polynomial)."""
    if n < -1:
        raise ValueError(f"index must be >= -1, got {n}")
    prev: list[int] = []  # a_{-1}
    cur = [1]             # a_0
    for _ in range(max(0, n)):
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += 2 * c
            nxt[i + 1] -= 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return ASeriesPoly(n, tuple(prev if n == -1 else cur))


def linear_combination(terms) -> list[Fraction]:
    """Exact coefficients of sum(c * a_k) over (c, k) pairs.

    Coefficients c may be ints, Fractions, or anything Fraction accepts.
    Trailing zero coefficients are trimmed, so the zero polynomial is [].
    """
    out: list[Fraction] = []
    for coeff, index in terms:
        poly = coeffs_a(index)
        if len(poly.coeffs) > len(out):
            out.extend([Fraction(0)] * (len(poly.coeffs) - len(out)))
        factor = Fraction(coeff)
        for i, c in enumerate(poly.coeffs):
            out[i] += factor * c
    while out and out[-1] == 0:
        out.pop()
    return out

