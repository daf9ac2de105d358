import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ngonspec import graphs, invariants, oracle

from conftest import (bareiss_det, bareiss_tree_count, complete_graph,
                      cycle_graph, laplacian_by_edge, leading_minors,
                      path_graph, petersen_graph, random_connected_graph,
                      star_graph)


def test_laplacian_entries():
    lap = oracle.normalized_laplacian(complete_graph(2))
    assert lap.order == 2
    assert np.allclose(lap.entries, [[1, -1], [-1, 1]])
    lap = oracle.normalized_laplacian(path_graph(3)).entries
    assert np.allclose(np.diag(lap), 1.0)
    assert abs(lap[0, 1] + 1 / math.sqrt(2)) < 1e-15
    assert lap[0, 2] == 0.0


def test_laplacian_equals_the_per_edge_reference_bit_for_bit(corpus):
    for graph in corpus.values():
        for grown in (graph, graphs.polygon_transform(graph, 3)):
            got = oracle.normalized_laplacian(grown).entries
            assert np.array_equal(got, laplacian_by_edge(grown))


def test_laplacian_matvec_matches_dense(corpus):
    rng = np.random.default_rng(3)
    for graph in corpus.values():
        dense = oracle.normalized_laplacian(graph).entries
        for _ in range(3):
            vec = rng.standard_normal(graph.vertex_count)
            got = oracle.laplacian_matvec(graph, vec)
            assert np.max(np.abs(got - dense @ vec)) <= 1e-14


def test_laplacian_matvec_block_rows_match_single_calls(corpus):
    # lift prints residuals to 17 digits, so the bits of one row are held
    # to the edge-order sums of the one-vector formula
    rng = np.random.default_rng(5)
    grown = graphs.polygon_transform(random_connected_graph(
        random.Random(40), 40, 20), 22)
    for graph in [*corpus.values(), grown]:
        u, v = np.array(graph.edges).T
        weight = 1.0 / np.sqrt(np.array(graph.degrees, dtype=float))
        weight = weight[u] * weight[v]
        count = graph.vertex_count
        for k in (1, 3, 22):
            block = rng.standard_normal((k, count))
            got = oracle.laplacian_matvec(graph, block)
            assert got.shape == block.shape
            for row, vec in zip(got, block):
                single = oracle.laplacian_matvec(graph, vec)
                assert np.array_equal(row, single)
                assert np.array_equal(single, (
                    vec - np.bincount(u, weight * vec[v], count)
                    - np.bincount(v, weight * vec[u], count)))


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


def test_eig_checks_symmetry_past_the_first_row_block():
    order = oracle.SYMMETRY_BLOCK_ROWS + 44
    late = np.identity(order)
    late[order - 1, order - 2] = 1e-13  # both indices in the second block
    with pytest.raises(ValueError, match="not symmetric"):
        oracle.eig_sym(oracle.DenseSymMatrix(order, late))
    late[order - 2, order - 1] = 1e-13
    assert oracle.eig_sym(oracle.DenseSymMatrix(order, late)).shape == (order,)


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


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


@st.composite
def dominant_matrices(draw):
    """Symmetric and strictly diagonally dominant with a positive diagonal,
    so positive definite: order 1-7, about half the off-diagonal zeros."""
    size = draw(st.integers(1, 7))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.just(0) | st.integers(-9, 9))
    for i, row in enumerate(rows):
        row[i] = sum(map(abs, row)) + draw(st.integers(1, 9))
    return rows


def test_modular_det_hand_cases():
    first = oracle._prime(0)
    # A tight bound: one prime covers |det| but not twice it.
    for det in (first - 1, 1 - first):
        assert oracle._crt(lambda primes: [(det % p,) for p in primes],
                           first - 1, 1, 1) == [det]
    empty = np.zeros((0, 0), dtype=np.int64)
    [(det, adj)] = oracle._eliminate_mod(empty, empty, (), [first])
    assert det == 1 and adj.shape == (0, 0)
    with pytest.raises(ValueError):
        order = oracle.MAX_MODULAR_ORDER
        oracle._eliminate_mod(np.zeros((order, order), dtype=np.int64),
                              np.zeros((order, 0), dtype=np.int64), (),
                              [first])


def test_primes_are_the_largest_below_the_limit():
    count = 60
    primes = [oracle._prime(i) for i in range(count)]
    small = np.array([q for q in range(2, 8193)
                      if all(q % d for d in range(2, math.isqrt(q) + 1))])
    span = np.arange(primes[-1], oracle.PRIME_LIMIT, dtype=np.int64)
    prime = np.all(span[:, None] % small[None, :] != 0, axis=1)
    assert span[prime][::-1].tolist() == primes


def test_primes_are_not_made_at_import():
    code = "import ngonspec as n; print(len(n.oracle._PRIMES))"
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "0"


def test_matrix_tree_matches_bareiss(corpus):
    for graph in corpus.values():
        for drop in (0, graph.vertex_count - 1):
            assert oracle.matrix_tree_count(graph, drop=drop) \
                == bareiss_tree_count(graph, drop)
    cases = [(complete_graph(3), 2, 4), (complete_graph(4), 3, 2),
             (cycle_graph(5), 2, 3), (petersen_graph(), 2, 2),
             (star_graph(5), 4, 2), (path_graph(4), 5, 2)]
    grown = [graphs.iterate_transform(g, n, steps) for g, n, steps in cases]
    assert max(g.vertex_count for g in grown) == 123
    for graph in grown:
        assert oracle.matrix_tree_count(graph) == bareiss_tree_count(graph)


def test_matrix_tree_drop_choice_on_a_large_graph():
    grown = graphs.iterate_transform(complete_graph(3), 2, 4)
    assert grown.vertex_count >= 100
    counts = {oracle.matrix_tree_count(grown, drop=d)
              for d in (0, 1, 57, grown.vertex_count - 1)}
    assert len(counts) == 1


def test_reduced_laplacian_is_in_elimination_order(corpus):
    cases = list(corpus.values()) + [
        graphs.iterate_transform(cycle_graph(5), 3, 2),
        random_connected_graph(random.Random(7), 50, 40)]
    for graph in cases:
        for drop in (0, graph.vertex_count - 1):
            minor, kept, ends = oracle._reduced_laplacian(graph, drop)
            assert sorted(kept) == sorted(
                graph.degrees[:drop] + graph.degrees[drop + 1:])
            assert minor.diagonal().tolist() == kept
            assert np.array_equal(minor, minor.T)
            assert minor.sum() == graph.degrees[drop]
            assert (minor == -1).sum() \
                == 2 * (len(graph.edges) - graph.degrees[drop])
            # rounds tile the order, and a round's pivots are independent
            assert list(ends) == sorted(set(ends)) and ends[-1] == len(minor)
            for k, stop in zip((0, *ends), ends):
                block = minor[k:stop, k:stop]
                assert np.array_equal(block, np.diag(block.diagonal()))


def test_matrix_tree_count_at_366_vertices():
    grown = graphs.iterate_transform(complete_graph(3), 2, 5)
    assert grown.vertex_count == 366
    want = invariants.spanning_trees_closed(3, 3, 3, 2, 5)
    for drop in (0, grown.vertex_count - 1):
        assert oracle.matrix_tree_count(grown, drop=drop) == want


def adjugate(rows):
    """adj(A)[i][j] = (-1)**(i+j) det(A without row j and column i)."""
    size = len(rows)
    return [[(-1) ** (i + j) * bareiss_det(
        [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
        for j in range(size)] for i in range(size)]


def assert_solved(mat, rhs, ends, primes, trees=None):
    """_eliminate_mod on a positive-definite mat in the order of ends.

    Below order 100 a prime gets None exactly when it divides a leading
    minor, and det is the last minor mod p; above, det is trees mod p.
    adj(mat) @ rhs is the cofactor reference up to order 12; at any order
    it is the X with mat @ X = det * rhs mod p, unique as det != 0.
    """
    results = oracle._eliminate_mod(mat, rhs, ends, primes)
    minors = leading_minors(mat.tolist()) if len(mat) < 100 else None
    trees = minors[-1] if minors else trees
    cofactors = np.array(adjugate(mat.tolist()), dtype=object) \
        if len(mat) <= 12 else None
    for p, solved in zip(primes, results, strict=True):
        if minors:
            assert (solved is None) == any(m % p == 0 for m in minors)
        if solved is None:
            continue
        det, adj_rhs = solved
        assert det == trees % p
        if cofactors is not None:
            assert adj_rhs.tolist() == (cofactors @ rhs % p).tolist()
        assert np.array_equal(mat @ adj_rhs % p, det * rhs % p)


@PROPERTY
@given(rows=dominant_matrices(), width=st.integers(0, 3),
       seed=st.integers())
@example(rows=[[5, 1, 0], [1, 7, 2], [0, 2, 3]], width=2, seed=0)
@example(rows=[[3, 0, 0], [0, 5, 0], [0, 0, 7]], width=1, seed=0)
def test_eliminate_mod_gives_det_and_adjugate_times_rhs(rows, width, seed):
    # In _rounds' order with 3, 5 and 7 in one batch, zero pivots are
    # common, and each prime must get None or its values on its own.
    size, rng = len(rows), random.Random(seed)
    order, ends = oracle._rounds(np.array(rows) != 0)
    mat = np.array(rows, dtype=np.int64)[np.ix_(order, order)]
    rhs = np.array([[rng.randint(-9, 9) for _ in range(width)]
                    for _ in range(size)], dtype=np.int64).reshape(size, width)
    assert_solved(mat, rhs, ends, [3, 5, 7, oracle._prime(0)])


def test_eliminate_mod_with_a_residue_of_zero():
    # det = first: the second pivot, first / (first + 1), is zero mod the
    # first prime, which gets None; the second prime still gets adj.
    first, second = oracle._prime(0), oracle._prime(1)
    mat = np.array([[first + 1, 1], [1, 1]], dtype=np.int64)
    none, (det, adj) = oracle._eliminate_mod(
        mat, np.eye(2, dtype=np.int64), (1, 2), [first, second])
    assert none is None and det == first % second
    assert adj.tolist() == [[1, second - 1],
                            [second - 1, (first + 1) % second]]


def test_eliminate_mod_on_grown_minors(corpus):
    # A grown graph's newest path vertices are eliminated as one round, and
    # with 3, 5 and 7 in the batch zero pivots come up in the middle of a
    # round. The closed-form tree count holds det past 100 vertices.
    primes = [3, 5, 7, oracle._prime(0)]
    for graph in corpus.values():
        base = bareiss_tree_count(graph)
        for n, g in [(2, 0), *((n, g) for n in (2, 3, 4) for g in (1, 2))]:
            grown = graphs.iterate_transform(graph, n, g)
            minor, _, ends = oracle._reduced_laplacian(grown, 0)
            trees = base if not g else invariants.spanning_trees_closed(
                base, graph.vertex_count, len(graph.edges), n, g)
            assert_solved(minor, np.eye(len(minor), dtype=np.int64), ends,
                          primes, trees)


def test_a_grown_graph_is_eliminated_in_seven_rounds():
    # Triangle n=2 g=5: the 243, 81, 27, 9 and 3 newest path vertices go
    # in one round per layer, then the last two vertices one by one. One
    # pivot per step would make 365 rounds.
    grown = graphs.iterate_transform(complete_graph(3), 2, 5)
    assert grown.vertex_count == 366
    _, _, ends = oracle._reduced_laplacian(grown, 0)
    assert [0, *ends[:-1]] == [0, 243, 324, 351, 360, 363, 364]
    assert ends[-1] == 365


def test_batches_stay_within_the_byte_budget(monkeypatch):
    graph = random_connected_graph(random.Random(5), 30, 30)
    want = oracle.kirchhoff_tree_count(graph)
    budget = 2 * 8 * 29 * 58  # two primes of [L0 | I] at order 29
    monkeypatch.setattr(oracle, "MODULAR_BATCH_BYTES", budget)
    sizes = []
    kernel = oracle._eliminate_mod

    def spy(mat, rhs, ends, primes):
        sizes.append(8 * len(primes) * len(mat) * (len(mat) + rhs.shape[1]))
        return kernel(mat, rhs, ends, primes)

    monkeypatch.setattr(oracle, "_eliminate_mod", spy)
    assert oracle.kirchhoff_tree_count(graph) == want
    assert len(sizes) >= 2 and max(sizes) == budget


def test_kirchhoff_skips_primes_that_divide_the_tree_count(monkeypatch):
    # The Petersen graph has 2000 = 2**4 * 5**3 spanning trees. With 5 put
    # first in the prime list, a pivot is zero mod 5, which gets None.
    primes = [5] + [oracle._prime(i) for i in range(4)]
    monkeypatch.setattr(oracle, "_PRIMES", primes)
    seen = []
    kernel = oracle._eliminate_mod

    def spy(mat, rhs, ends, primes):
        results = kernel(mat, rhs, ends, primes)
        seen.extend(zip(primes, results))
        return results

    monkeypatch.setattr(oracle, "_eliminate_mod", spy)
    assert oracle.kirchhoff_tree_count(petersen_graph()) \
        == (Fraction(297), 2000)
    assert seen[0] == (5, None)
    assert [p for p, _ in seen[1:]] == primes[1:len(seen)]


def test_kirchhoff_tree_count_agrees_with_the_tree_count(corpus):
    cases = list(corpus.values()) + [
        random_connected_graph(random.Random(count), count, count)
        for count in (60, 100)]
    for graph in cases:
        kirchhoff, trees = oracle.kirchhoff_tree_count(graph)
        assert trees == oracle.matrix_tree_count(graph)
        assert isinstance(kirchhoff, Fraction) and kirchhoff > 0


def test_kirchhoff_tree_count_guards():
    with pytest.raises(graphs.CapExceededError,
                       match="exact spanning-tree count needs 401 vertices"):
        oracle.kirchhoff_tree_count(cycle_graph(oracle.TREE_COUNT_CAP + 1))
    with pytest.raises(graphs.GraphError):
        oracle.kirchhoff_tree_count(graphs.make_graph(4, [(0, 1), (2, 3)]))


def test_oracle_imports_only_graphs_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "ngonspec":
                internal.add(module)
        elif isinstance(node, ast.Import):
            internal.update(alias.name for alias in node.names
                            if alias.name.split(".")[0] == "ngonspec")
    assert internal == {".graphs"}


def test_eliminate_mod_is_called_only_by_the_tree_counts():
    # The kernel skips a prime that meets a zero pivot, which ends only for
    # a positive-definite matrix: these callers pass a connected graph's
    # reduced Laplacian.
    callers = set()
    for path in Path(oracle.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            callers.update(
                (path.stem, getattr(top, "name", None))
                for node in ast.walk(top) if isinstance(node, ast.Call)
                and "_eliminate_mod" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None)))
    assert callers == {("oracle", "matrix_tree_count"),
                       ("oracle", "kirchhoff_tree_count")}


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
