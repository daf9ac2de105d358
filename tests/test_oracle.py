import math

import numpy as np
import pytest

from ngonspec import graphs, oracle

from conftest import (complete_graph, cycle_graph, path_graph, petersen_graph,
                      random_connected_graph, star_graph)


def test_laplacian_entries():
    lap = oracle.normalized_laplacian(complete_graph(2))
    assert lap.order == 2
    assert np.allclose(lap.entries, [[1, -1], [-1, 1]])
    lap = oracle.normalized_laplacian(path_graph(3)).entries
    assert np.allclose(np.diag(lap), 1.0)
    assert abs(lap[0, 1] + 1 / math.sqrt(2)) < 1e-15
    assert lap[0, 2] == 0.0


def test_laplacian_matvec_matches_dense(corpus):
    rng = np.random.default_rng(3)
    for graph in corpus.values():
        dense = oracle.normalized_laplacian(graph).entries
        for _ in range(3):
            vec = rng.standard_normal(graph.vertex_count)
            got = oracle.laplacian_matvec(graph, vec)
            assert np.max(np.abs(got - dense @ vec)) <= 1e-14


def test_eig_known_spectra():
    assert np.allclose(
        oracle.eig_sym(oracle.normalized_laplacian(complete_graph(2))),
        [0.0, 2.0])
    assert np.allclose(
        oracle.eig_sym(oracle.normalized_laplacian(cycle_graph(4))),
        [0.0, 1.0, 1.0, 2.0])
    assert np.allclose(
        oracle.eig_sym(oracle.normalized_laplacian(complete_graph(4))),
        [0.0, 4 / 3, 4 / 3, 4 / 3])


def test_eig_validation():
    with pytest.raises(ValueError):
        oracle.eig_sym(oracle.DenseSymMatrix(2, np.zeros((3, 2))))
    skew = oracle.DenseSymMatrix(2, np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ValueError):
        oracle.eig_sym(skew)


def test_eig_range_and_trace():
    import random
    graph = random_connected_graph(random.Random(99), 11, 8)
    vals = oracle.eig_sym(oracle.normalized_laplacian(graph))
    assert vals[0] > -1e-12
    assert vals[-1] < 2 + 1e-12
    assert abs(vals.sum() - graph.vertex_count) < 1e-10


def test_matrix_tree_known_counts():
    assert oracle.matrix_tree_count(complete_graph(3)) == 3
    assert oracle.matrix_tree_count(complete_graph(4)) == 16
    assert oracle.matrix_tree_count(complete_graph(5)) == 125
    assert oracle.matrix_tree_count(cycle_graph(5)) == 5
    assert oracle.matrix_tree_count(path_graph(4)) == 1
    assert oracle.matrix_tree_count(star_graph(5)) == 1
    assert oracle.matrix_tree_count(petersen_graph()) == 2000


def test_matrix_tree_drop_choice_is_irrelevant():
    grown = graphs.polygon_transform(complete_graph(3), 2)
    counts = {oracle.matrix_tree_count(grown, drop=d) for d in (0, 3, 5)}
    assert counts == {54}


def test_matrix_tree_guards():
    big = cycle_graph(oracle.TREE_COUNT_CAP + 1)
    with pytest.raises(graphs.CapExceededError):
        oracle.matrix_tree_count(big)
    with pytest.raises(graphs.GraphError):
        oracle.matrix_tree_count(graphs.make_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        oracle.matrix_tree_count(complete_graph(3), drop=7)


def test_compare_spectra():
    a = np.array([0.0, 1.0, 2.0])
    same = oracle.compare_spectra(a, a.copy(), 1e-12)
    assert same.matched and same.max_abs_deviation == 0.0
    shifted = oracle.compare_spectra(a, a + 1e-6, 1e-8)
    assert not shifted.matched
    assert abs(shifted.max_abs_deviation - 1e-6) < 1e-12
    short = oracle.compare_spectra(a, a[:2], 1e-8)
    assert not short.matched
    assert short.max_abs_deviation == math.inf
    assert (short.size_a, short.size_b) == (3, 2)


def test_compare_spectra_sorts_first():
    a = [2.0, 0.0, 1.0]
    b = [1.0, 2.0, 0.0]
    assert oracle.compare_spectra(a, b, 1e-12).matched
