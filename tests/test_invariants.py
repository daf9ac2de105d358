import math
import random
from fractions import Fraction

import pytest

from ngonspec import graphs, invariants, oracle, spectrum

from conftest import (complete_graph, cycle_graph,
                      faddeev_leverrier_invariants, kemeny_step,
                      kirchhoff_step, petersen_graph, random_connected_graph,
                      spanning_trees_step, spectrum_from_entries)


def test_from_spectrum_triangle():
    k3 = complete_graph(3)
    spec, ctx = spectrum.base_spectrum(k3)
    report = invariants.invariants_from_spectrum(
        spec, ctx, invariants.degree_product(k3))
    assert abs(report.kirchhoff_multiplicative - 8) < 1e-12
    assert abs(report.kemeny - Fraction(4, 3)) < 1e-12
    assert report.spanning_trees == 3


def test_from_spectrum_sums_like_a_python_loop(corpus):
    # The sums run left to right over the nonzero rows, so their bits are
    # those of a += loop, not of numpy's pairwise np.sum.
    rng = random.Random(11)
    for name, base in corpus.items():
        spec, ctx = spectrum.base_spectrum(base)
        *_, (grown, grown_ctx) = spectrum.iterate_spectrum(
            spec, ctx, rng.randint(2, 9), rng.randint(1, 3))
        report = invariants.invariants_from_spectrum(grown, grown_ctx, 1)
        reciprocal = log_product = 0.0
        for value, mult, source in zip(grown.values.tolist(),
                                       grown.multiplicities.tolist(),
                                       grown.sources.tolist()):
            if source != spectrum.ZERO_CODE:
                reciprocal += mult / value
                log_product += mult * math.log(value)
        assert report.kemeny == reciprocal, name
        assert type(report.kemeny) is float
        assert report.kirchhoff_multiplicative \
            == 2 * grown_ctx.edges * reciprocal
        want = round(math.exp(log_product - math.log(2 * grown_ctx.edges)))
        assert report.spanning_trees == want


def test_from_spectrum_with_only_the_zero_row():
    spec = spectrum_from_entries(
        [spectrum.SpectrumEntry(0.0, 1, spectrum.SOURCE_ZERO)])
    report = invariants.invariants_from_spectrum(
        spec, graphs.GrowthCounts(1, 1, False), 2)
    assert (report.kirchhoff_multiplicative, report.kemeny) == (0.0, 0.0)
    assert report.spanning_trees == 1


def test_exact_invariants_worked_values():
    assert invariants.exact_invariants(complete_graph(3)) \
        == (Fraction(8), Fraction(4, 3), 3)
    assert invariants.exact_invariants(cycle_graph(4)) \
        == (Fraction(20), Fraction(5, 2), 4)
    grown = graphs.polygon_transform(complete_graph(3), 2)
    assert invariants.exact_invariants(grown) \
        == (Fraction(84), Fraction(14, 3), 54)


def test_exact_invariants_match_float_route():
    pet = petersen_graph()
    kf, kemeny, trees = invariants.exact_invariants(pet)
    spec, ctx = spectrum.base_spectrum(pet)
    report = invariants.invariants_from_spectrum(
        spec, ctx, invariants.degree_product(pet))
    assert abs(report.kirchhoff_multiplicative - kf) < 1e-9 * kf
    assert abs(report.kemeny - kemeny) < 1e-9 * kemeny
    assert trees == 2000 == oracle.matrix_tree_count(pet)


def test_exact_invariants_match_faddeev_leverrier(corpus):
    for graph in corpus.values():
        assert invariants.exact_invariants(graph) \
            == faddeev_leverrier_invariants(graph)


@pytest.mark.parametrize("count, extra", [(12, 9), (20, 5), (30, 31),
                                          (40, 20)])
def test_exact_invariants_match_faddeev_leverrier_on_random_bases(count,
                                                                  extra):
    graph = random_connected_graph(random.Random(count), count, extra)
    got = invariants.exact_invariants(graph)
    assert got == faddeev_leverrier_invariants(graph)
    assert got[2] == oracle.matrix_tree_count(graph)


def test_single_step_closed_forms():
    # one growth step applied to a single edge gives the triangle
    assert kirchhoff_step(Fraction(1), 2, 1, 2) == 8
    assert kemeny_step(Fraction(1, 2), 2, 1, 2) == Fraction(4, 3)
    assert spanning_trees_step(1, 2, 1, 2) == 3


def test_iterated_closed_forms_triangle_chain():
    assert invariants.kirchhoff_closed(Fraction(8), 3, 3, 2, 1) == 84
    assert invariants.kirchhoff_closed(Fraction(8), 3, 3, 2, 2) == 882
    assert invariants.kemeny_closed(Fraction(4, 3), 3, 3, 2, 1) \
        == Fraction(14, 3)
    assert invariants.kemeny_closed(Fraction(4, 3), 3, 3, 2, 2) \
        == Fraction(49, 3)
    assert invariants.spanning_trees_closed(3, 3, 3, 2, 1) == 54
    assert invariants.spanning_trees_closed(3, 3, 3, 2, 2) == 209952


def test_closed_form_equals_iterated_step():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = rng.randint(1, 4)
        n0 = rng.randint(2, 50)
        e0 = rng.randint(n0 - 1, n0 + 20)
        kf = Fraction(rng.randint(1, 500), rng.randint(1, 9))
        kemeny = Fraction(rng.randint(1, 100), rng.randint(1, 9))
        trees = rng.randint(1, 10**6)
        kf_it, km_it, nst_it = kf, kemeny, trees
        nv, ne = n0, e0
        for _ in range(g):
            kf_it = kirchhoff_step(kf_it, nv, ne, n)
            km_it = kemeny_step(km_it, nv, ne, n)
            nst_it = spanning_trees_step(nst_it, nv, ne, n)
            nv, ne = nv + (n - 1) * ne, (n + 1) * ne
        assert invariants.kirchhoff_closed(kf, n0, e0, n, g) == kf_it
        assert invariants.kemeny_closed(kemeny, n0, e0, n, g) == km_it
        assert invariants.spanning_trees_closed(trees, n0, e0, n, g) == nst_it


def test_kemeny_is_kirchhoff_over_twice_the_edges():
    rng = random.Random(53)
    for _ in range(50):
        n = rng.randint(2, 8)
        g = rng.randint(1, 5)
        n0 = rng.randint(2, 30)
        e0 = rng.randint(n0 - 1, n0 + 10)
        kemeny = Fraction(rng.randint(1, 60), rng.randint(1, 7))
        kf = 2 * e0 * kemeny
        eg = (n + 1) ** g * e0
        assert invariants.kemeny_closed(kemeny, n0, e0, n, g) \
            == invariants.kirchhoff_closed(kf, n0, e0, n, g) / (2 * eg)


def test_spanning_trees_step_matches_matrix_tree(corpus):
    for name in ("K4", "C5", "S5"):
        base = corpus[name]
        base_trees = oracle.matrix_tree_count(base)
        for n in (2, 3, 4):
            grown = graphs.polygon_transform(base, n)
            assert spanning_trees_step(
                base_trees, base.vertex_count, len(base.edges), n) \
                == oracle.matrix_tree_count(grown)


def test_degree_product_closed_matches_explicit(corpus):
    for name in ("K3", "P4", "C5"):
        base = corpus[name]
        p0 = invariants.degree_product(base)
        for n, g in ((2, 1), (2, 2), (3, 1), (5, 1)):
            grown = graphs.iterate_transform(base, n, g, 10**5)
            assert invariants.degree_product_closed(p0, base.counts, n, g) \
                == invariants.degree_product(grown)


def test_validation():
    with pytest.raises(ValueError):
        invariants.kirchhoff_closed(Fraction(1), 3, 3, 1, 1)
    with pytest.raises(ValueError):
        invariants.kirchhoff_closed(Fraction(1), 3, 3, 2, 0)
    with pytest.raises(ValueError):
        invariants.kemeny_closed(Fraction(1), 3, 3, 2, -1)
    with pytest.raises(ValueError):
        spanning_trees_step(1, 5, 2, 3)  # fewer edges than a tree
    with pytest.raises(ValueError):
        invariants.exact_invariants(
            graphs.make_graph(4, [(0, 1), (2, 3)]))


def test_float_inputs_stay_floats():
    got = invariants.kirchhoff_closed(8.0, 3, 3, 2, 1)
    assert isinstance(got, float)
    assert abs(got - 84.0) < 1e-9


def test_kemeny_from_a_spectrum_with_tiny_lifted_values(corpus):
    # At g = 42 the smallest lifted value of the triangle is below 1e-12;
    # it must count as an eigenvalue, not as a second zero.
    base = corpus["K3"]
    spec, ctx = spectrum.base_spectrum(base)
    k0 = invariants.invariants_from_spectrum(
        spec, ctx, invariants.degree_product(base)).kemeny
    *_, (grown, grown_ctx) = spectrum.iterate_spectrum(spec, ctx, 2, 42)
    assert 0.0 < grown.values[1] < 1e-12
    report = invariants.invariants_from_spectrum(grown, grown_ctx, 1)
    closed = invariants.kemeny_closed(k0, 3, 3, 2, 42)
    assert abs(report.kemeny / closed - 1) < 1e-12
