import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ngonspec import aseries, roots
from ngonspec.roots import FamilyKind, RootFamily

from conftest import (family_polynomial, lambda_polynomial, root_checksums,
                      vieta_sums)


def trig_roots(kind, n):
    """Independent closed-form root locations, from the sine quotient form."""
    if kind is FamilyKind.ODD_ZERO:
        return [1 - math.cos(2 * k * math.pi / (n + 1))
                for k in range(1, (n - 1) // 2 + 1)]
    if kind is FamilyKind.ODD_PLUS:
        return [1 - math.cos(2 * k * math.pi / n)
                for k in range(1, (n - 1) // 2 + 1)]
    if kind is FamilyKind.ODD_MINUS:
        return [1 - math.cos((2 * k - 1) * math.pi / n)
                for k in range(1, (n - 1) // 2 + 1)]
    if kind is FamilyKind.EVEN_PLUS:
        return [1 - math.cos(2 * k * math.pi / (n + 1))
                for k in range(1, n // 2 + 1)]
    if kind is FamilyKind.EVEN_ZERO:
        return [1 - math.cos(2 * k * math.pi / n)
                for k in range(1, n // 2)]
    return [1 - math.cos((2 * k - 1) * math.pi / n)
            for k in range(1, n // 2 + 1)]


def matching_n(kind):
    start = 3 if kind.odd else 2
    return range(start, 16, 2)


VIETA_FAMILY = {
    FamilyKind.ODD_ZERO: lambda n: (Fraction(n * n + 2 * n - 3, 12),
                                    Fraction(n + 1, 2 ** ((n + 1) // 2))),
    FamilyKind.ODD_PLUS: lambda n: (Fraction(n * n - 1, 12),
                                    Fraction(n, 2 ** ((n - 1) // 2))),
    FamilyKind.ODD_MINUS: lambda n: (Fraction(n * n - 1, 4),
                                     Fraction(1, 2 ** ((n - 1) // 2))),
    FamilyKind.EVEN_PLUS: lambda n: (Fraction(n * n + 2 * n, 12),
                                     Fraction(n + 1, 2 ** (n // 2))),
    FamilyKind.EVEN_ZERO: lambda n: (Fraction(n * n - 4, 12),
                                     Fraction(n, 2 ** (n // 2))),
    FamilyKind.EVEN_MINUS: lambda n: (Fraction(n * n, 4),
                                      Fraction(1, 2 ** (n // 2 - 1))),
}


def test_family_polynomial_small_cases():
    assert family_polynomial(RootFamily(FamilyKind.EVEN_PLUS, 2)) \
        == [3, -2]
    assert family_polynomial(RootFamily(FamilyKind.EVEN_ZERO, 2)) == [1]
    assert family_polynomial(RootFamily(FamilyKind.EVEN_MINUS, 2)) \
        == [2, -2]
    assert family_polynomial(RootFamily(FamilyKind.ODD_ZERO, 3)) \
        == [2, -2]
    assert family_polynomial(RootFamily(FamilyKind.ODD_PLUS, 3)) \
        == [3, -2]
    assert family_polynomial(RootFamily(FamilyKind.ODD_MINUS, 3)) \
        == [1, -2]


def test_family_parity_guard():
    with pytest.raises(ValueError):
        RootFamily(FamilyKind.ODD_ZERO, 4)
    with pytest.raises(ValueError):
        RootFamily(FamilyKind.EVEN_MINUS, 5)


def test_worked_family_roots():
    assert roots.roots_of_family(
        RootFamily(FamilyKind.EVEN_PLUS, 2)).tolist() == [1.5]
    assert roots.roots_of_family(
        RootFamily(FamilyKind.EVEN_ZERO, 2)).tolist() == []
    got = roots.roots_of_family(RootFamily(FamilyKind.EVEN_MINUS, 4))
    assert np.allclose(got, [1 - math.sqrt(2) / 2, 1 + math.sqrt(2) / 2])


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_roots_match_trigonometric_oracle(kind):
    for n in matching_n(kind):
        got = roots.roots_of_family(RootFamily(kind, n))
        want = sorted(trig_roots(kind, n))
        assert len(got) == len(want)
        assert np.max(np.abs(np.array(got) - np.array(want)),
                      initial=0.0) < 1e-10


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_family_vieta_identities(kind):
    for n in matching_n(kind):
        family = RootFamily(kind, n)
        recip, prod = vieta_sums(family_polynomial(family))
        want_recip, want_prod = VIETA_FAMILY[kind](n)
        assert (recip, prod) == (want_recip, want_prod)
        got_recip, got_prod = root_checksums(roots.roots_of_family(family))
        assert abs(got_recip - want_recip) < 1e-10
        assert abs(got_prod - want_prod) < 1e-10


@pytest.mark.parametrize("kind,n", [(FamilyKind.ODD_ZERO, 15),
                                    (FamilyKind.EVEN_PLUS, 14)])
def test_value_checks_at_plus_family_roots(kind, n):
    for mu in roots.roots_of_family(RootFamily(kind, n)).tolist():
        assert abs(aseries.eval_a(n - 1, mu) + 1) < 1e-10
        assert abs(aseries.eval_a(n - 2, mu) + 2 * (1 - mu)) < 1e-10


@pytest.mark.parametrize("kind,n,value", [
    (FamilyKind.ODD_MINUS, 15, 1), (FamilyKind.EVEN_MINUS, 14, 1),
    (FamilyKind.ODD_PLUS, 15, -1), (FamilyKind.EVEN_ZERO, 14, -1)])
def test_value_checks_at_minus_family_roots(kind, n, value):
    for mu in roots.roots_of_family(RootFamily(kind, n)).tolist():
        assert abs(aseries.eval_a(n - 2, mu) - value) < 1e-10


def test_roots_come_as_ascending_float64_arrays():
    for kind in FamilyKind:
        for n in range(3 if kind.odd else 2, 65, 2):
            got = roots.roots_of_family(RootFamily(kind, n))
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == (len(trig_roots(kind, n)),)
            assert np.all(np.diff(got) > 0), (kind, n)
    for n in range(2, 65):
        got = roots.solve_lambda_equation(n, 0.7)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == ((n + 1) // 2,)
        assert np.all(np.diff(got) > 0), n


def test_a_root_outside_the_open_interval_is_named(monkeypatch):
    monkeypatch.setattr(roots, "solve_lambda_many",
                        lambda n, lams: np.array([[2.5]]))
    with pytest.raises(roots.RootIsolationError,
                       match=r"^roots of lambda=1\.5 n=2 escaped \(0, 2\): "
                             r"\[2\.5\]$"):
        roots.solve_lambda_equation(2, 1.5)
    monkeypatch.setattr(roots, "_polish",
                        lambda x, lo, hi, value: np.full_like(x, 2.0))
    roots.roots_of_family.cache_clear()  # a cached array skips _polish
    with pytest.raises(roots.RootIsolationError,
                       match=r"^roots of odd-zero n=3 escaped \(0, 2\): "
                             r"\[2\.0\]$"):
        roots.roots_of_family(RootFamily(FamilyKind.ODD_ZERO, 3))


def test_transfer_polynomial_coefficients():
    assert lambda_polynomial(3, Fraction(3, 2)) == [3, -9, 4]
    assert lambda_polynomial(2, Fraction(3, 2)) == [Fraction(3, 2), -2]
    # constant coefficient: 2*lam for odd n, lam for even n
    for n, scale in ((5, 2), (7, 2), (4, 1), (6, 1)):
        poly = lambda_polynomial(n, Fraction(7, 10))
        assert poly[0] == scale * Fraction(7, 10)
        assert len(poly) - 1 == (n + 1) // 2


def test_transfer_polynomial_rejects_boundary_eigenvalues():
    for bad in (0, 2, -0.5, 2.5):
        with pytest.raises(ValueError):
            lambda_polynomial(5, bad)
    with pytest.raises(ValueError):
        lambda_polynomial(1, 1.0)


def test_solve_halves_the_eigenvalue_for_triangle_growth():
    # n=2: the transfer polynomial is lam - 2*mu
    rng = random.Random(23)
    for _ in range(20):
        lam = rng.uniform(0.01, 1.99)
        got = roots.solve_lambda_equation(2, lam).tolist()
        assert len(got) == 1
        assert abs(got[0] - lam / 2) < 1e-12


def test_solve_exact_grid_hit():
    # root 0.75 lands exactly on the sample grid
    assert roots.solve_lambda_equation(2, 1.5).tolist() == [0.75]


def test_solve_known_quadratic():
    got = roots.solve_lambda_equation(3, 1.5)
    want = ((9 - math.sqrt(33)) / 8, (9 + math.sqrt(33)) / 8)
    assert np.allclose(got, want, atol=1e-12)


def test_transfer_vieta_identities():
    rng = random.Random(29)
    for n in range(2, 11):
        for _ in range(10):
            lam = Fraction(rng.randint(1, 199), 100)
            recip, prod = vieta_sums(lambda_polynomial(n, lam))
            if n % 2:
                want_recip = n / lam + Fraction(n - 1, 2) ** 2
                want_prod = lam / 2 ** ((n - 1) // 2)
            else:
                want_recip = n / lam + Fraction(n * n - 2 * n, 4)
                want_prod = lam / 2 ** (n // 2)
            assert (recip, prod) == (want_recip, want_prod)


def test_batched_solver_matches_scalar():
    rng = random.Random(31)
    for n in (2, 3, 6, 9):
        lams = [rng.uniform(0.02, 1.98) for _ in range(40)] + [1.5, 1.0]
        batch = roots.solve_lambda_many(n, lams)
        assert batch.shape == (42, (n + 1) // 2)
        for row, lam in zip(batch, lams):
            assert np.allclose(row, roots.solve_lambda_equation(n, lam),
                               atol=1e-12)



# For odd n the top root is about 2 - (2 - lam)/n, which rounds to 2.0 once
# lam is within a few n ulps of 2; the spectrum pipeline treats eigenvalues
# within 1e-12 of 2 as 2, so the domain stops there. From 1e-300 up, the
# smallest root, about lam/n, stays a normal float.
LAMBDAS = st.floats(min_value=1e-300, max_value=2 - 1e-12)
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


@PROPERTY
@given(n=st.integers(2, 500), lams=st.lists(LAMBDAS, min_size=1, max_size=4))
def test_transfer_roots_properties(n, lams):
    batch = roots.solve_lambda_many(n, lams)
    assert batch.shape == (len(lams), (n + 1) // 2)
    for row, lam in zip(batch, lams):
        assert np.all(np.diff(row) > 0)
        assert np.all((row > 0) & (row < 2))
        assert row.tolist() == roots.solve_lambda_equation(n, lam).tolist()


@PROPERTY
@given(n=st.integers(2, 12), lam=LAMBDAS)
def test_transfer_roots_match_exact_vieta_sums(n, lam):
    got_recip, got_prod = root_checksums(roots.solve_lambda_equation(n, lam))
    recip, prod = vieta_sums(lambda_polynomial(n, lam))
    assert abs(got_recip - recip) <= 1e-10 * recip
    assert abs(got_prod - prod) <= 1e-10 * prod


def test_family_roots_are_computed_once_and_read_only():
    family = RootFamily(FamilyKind.ODD_PLUS, 9)
    first = roots.roots_of_family(family)
    assert roots.roots_of_family(RootFamily(FamilyKind.ODD_PLUS, 9)) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0
    assert first.tolist() \
        == roots.roots_of_family.__wrapped__(family).tolist()
