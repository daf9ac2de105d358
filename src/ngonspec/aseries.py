"""The recurrence family a_n(x) = 2(1-x) a_{n-1}(x) - a_{n-2}(x).

Starts from a_{-1} = 0 and a_0 = 1; a_n is a degree-n polynomial (a
second-kind Chebyshev polynomial in 1-x). Evaluation keeps the numeric
kind of its argument, so Fractions stay exact and floats stay floats, and
the polynomials themselves are available with exact integer coefficients.
Exact linear combinations give the identity suites' family and transfer
polynomials; only the suites and perfbench's tracer import this module.
"""

from __future__ import annotations

from fractions import Fraction


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


def coeffs_a(n: int) -> tuple[int, ...]:
    """Exact integer coefficients of a_n, ascending powers; () for n = -1."""
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
    return tuple(prev if n == -1 else cur)


def linear_combination(terms) -> list[Fraction]:
    """Exact coefficients of sum(c * a_k) over (c, k) pairs.

    Coefficients c may be ints, Fractions, or anything Fraction accepts.
    Trailing zero coefficients are trimmed, so the zero polynomial is [].
    """
    out: list[Fraction] = []
    for coeff, index in terms:
        poly = coeffs_a(index)
        if len(poly) > len(out):
            out.extend([Fraction(0)] * (len(poly) - len(out)))
        factor = Fraction(coeff)
        for i, c in enumerate(poly):
            out[i] += factor * c
    while out and out[-1] == 0:
        out.pop()
    return out

