import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ngonspec import aseries

from conftest import poly_mul


def coeffs(n):
    return aseries.coeffs_a(n)


def eval_coeffs(vec, x):
    acc = 0 * x
    for c in reversed(vec):
        acc = acc * x + c
    return acc


def test_first_members():
    assert coeffs(-1) == ()
    assert coeffs(0) == (1,)
    assert coeffs(1) == (2, -2)
    assert coeffs(2) == (3, -8, 4)
    assert coeffs(3) == (4, -20, 24, -8)


def test_recurrence_defines_the_sequence():
    rng = random.Random(11)
    for _ in range(50):
        mu = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        for n in range(1, 12):
            lhs = aseries.eval_a(n, mu)
            rhs = 2 * (1 - mu) * aseries.eval_a(n - 1, mu) \
                - aseries.eval_a(n - 2, mu)
            assert lhs == rhs


def test_eval_matches_coefficients_exactly():
    rng = random.Random(5)
    for n in range(-1, 20):
        vec = coeffs(n)
        for _ in range(5):
            mu = Fraction(rng.randint(-30, 30), rng.randint(1, 13))
            assert aseries.eval_a(n, mu) == eval_coeffs(vec, mu)


def test_eval_accepts_arrays():
    mu = np.linspace(0.0, 2.0, 7)
    got = aseries.eval_a(2, mu)
    assert np.allclose(got, 3 - 8 * mu + 4 * mu * mu)


def test_index_validation():
    with pytest.raises(ValueError):
        aseries.eval_a(-2, 0.5)
    with pytest.raises(ValueError):
        aseries.coeffs_a(-3)


def test_reflection_is_exact_polynomial_identity():
    # a_n(2 - x) == (-1)^n a_n(x), checked coefficient by coefficient
    for n in range(31):
        vec = coeffs(n)
        reflected = [Fraction(0)] * (n + 1)
        for k, c in enumerate(vec):
            # expand c*(2 - x)^k
            for i in range(k + 1):
                reflected[i] += c * math.comb(k, i) * 2 ** (k - i) * (-1) ** i
        sign = -1 if n % 2 else 1
        assert reflected == [sign * c for c in vec]


@pytest.mark.parametrize("n", range(2, 31))
def test_halving_factorizations(n):
    full = list(coeffs(n))
    if n % 2:
        h = (n + 1) // 2
        left = aseries.linear_combination([(1, h), (-1, h - 2)])
        assert poly_mul(left, list(coeffs(h - 1))) == full
        left = aseries.linear_combination([(1, h - 1), (-1, h - 2)])
        right = aseries.linear_combination([(1, h), (1, h - 1)])
        shifted = poly_mul(left, right)
    else:
        h = n // 2
        left = aseries.linear_combination([(1, h), (-1, h - 1)])
        right = aseries.linear_combination([(1, h), (1, h - 1)])
        assert poly_mul(left, right) == full
        left = aseries.linear_combination([(1, h), (-1, h - 2)])
        shifted = poly_mul(left, list(coeffs(h)))
    plus_one = full.copy()
    plus_one[0] += 1
    assert shifted == plus_one


@pytest.mark.parametrize("n", range(51))
def test_coefficient_closed_forms(n):
    vec = coeffs(n)
    assert vec[0] == n + 1
    if n >= 1:
        assert vec[1] * 3 == -(n ** 3 + 3 * n ** 2 + 2 * n)
    assert vec[n] == (-1) ** n * 2 ** n


def test_trigonometric_closed_form():
    rng = random.Random(3)
    for _ in range(200):
        theta = rng.uniform(0.05, math.pi - 0.05)
        n = rng.randint(0, 40)
        lhs = aseries.eval_a(n, 1 - math.cos(theta)) * math.sin(theta)
        assert abs(lhs - math.sin((n + 1) * theta)) < 1e-12


def test_linear_combination_examples():
    assert aseries.linear_combination([(1, 1)]) == [2, -2]
    assert aseries.linear_combination([(1, 2), (-1, 0)]) == [2, -8, 4]
    assert aseries.linear_combination([(1, 1), (-1, 1)]) == []
    mixed = aseries.linear_combination([(Fraction(1, 2), 2), (1, -1)])
    assert mixed == [Fraction(3, 2), -4, 2]


def test_poly_objects_report_degree():
    assert len(aseries.coeffs_a(4)) - 1 == 4
    assert len(aseries.coeffs_a(-1)) - 1 == -1
