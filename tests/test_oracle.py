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
                      cycle_graph, laplacian_by_edge, path_graph,
                      petersen_graph, random_connected_graph, star_graph)


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


def row_sum_bound(rows) -> int:
    """Product of the rows' absolute sums: at least Hadamard's bound."""
    return math.prod(sum(map(abs, row)) for row in rows)


def modular_det(rows) -> int:
    return oracle._modular_det(np.array(rows, dtype=np.int64).reshape(
        len(rows), len(rows)), row_sum_bound(rows))


SQUARE_MATRICES = st.integers(0, 7).flatmap(lambda size: st.lists(
    st.lists(st.integers(-9, 9), min_size=size, max_size=size),
    min_size=size, max_size=size))


@PROPERTY
@given(rows=SQUARE_MATRICES)
@example(rows=[[2, 3], [5, 1]])                       # negative, -13
@example(rows=[[1, 2, 3], [2, 4, 6], [0, 1, 5]])       # singular
@example(rows=[[0, 2, 1], [3, 1, 4], [1, 5, 9]])       # swap at the start
@example(rows=[[4, 2, 7], [2, 1, 9], [3, 8, 1]])       # swap after a step
def test_modular_det_matches_bareiss(rows):
    assert modular_det(rows) == bareiss_det([list(r) for r in rows])


@PROPERTY
@given(data=st.data(), size=st.integers(1, 6), multiple=st.integers(-3, 3))
def test_modular_det_with_a_residue_of_zero(data, size, multiple):
    # L @ U with unit lower-triangular L and det U a multiple of the first
    # prime, then rows permuted: det mod that prime is 0 while det may not be.
    small = st.integers(-3, 3)
    lower = np.eye(size, dtype=np.int64)
    upper = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        lower[i, :i] = data.draw(st.lists(small, min_size=i, max_size=i))
        upper[i, i + 1:] = data.draw(
            st.lists(small, min_size=size - i - 1, max_size=size - i - 1))
        upper[i, i] = data.draw(st.integers(1, 3))
    upper[0, 0] = multiple * oracle._prime(0)
    order = data.draw(st.permutations(range(size)))
    rows = (lower @ upper)[list(order)].tolist()
    want = bareiss_det([list(r) for r in rows])
    assert want % oracle._prime(0) == 0
    assert modular_det(rows) == want


def test_modular_det_hand_cases():
    first = oracle._prime(0)
    assert modular_det([]) == 1
    assert modular_det([[-5]]) == -5
    assert modular_det([[0, 1], [1, 0]]) == -1
    assert modular_det([[0, 0], [0, 3]]) == 0
    assert modular_det([[first, 1], [0, 3]]) == 3 * first
    assert modular_det([[first, 1], [first, 1 - first]]) == -first * first
    # A tight bound: one prime covers |det| but not twice it.
    for det in (first - 1, 1 - first):
        assert oracle._modular_det(np.array([[det]]), first - 1) == det
    with pytest.raises(ValueError):
        oracle._modular_det(np.zeros((oracle.MAX_MODULAR_ORDER,) * 2,
                                     dtype=np.int64), 1)


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


def test_reduced_laplacian_is_in_kept_degree_order(corpus):
    cases = list(corpus.values()) + [
        graphs.iterate_transform(cycle_graph(5), 3, 2),
        random_connected_graph(random.Random(7), 50, 40)]
    for graph in cases:
        for drop in (0, graph.vertex_count - 1):
            minor, kept = oracle._reduced_laplacian(graph, drop)
            assert kept == sorted(kept)
            assert sorted(kept) == sorted(
                graph.degrees[:drop] + graph.degrees[drop + 1:])
            assert minor.diagonal().tolist() == kept
            assert np.array_equal(minor, minor.T)
            assert minor.sum() == graph.degrees[drop]
            assert (minor == -1).sum() \
                == 2 * (len(graph.edges) - graph.degrees[drop])


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


@PROPERTY
@given(rows=SQUARE_MATRICES, width=st.integers(0, 3), data=st.data())
def test_eliminate_mod_gives_det_and_adjugate_times_rhs(rows, width, data):
    size = len(rows)
    rhs = data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=width, max_size=width),
        min_size=size, max_size=size))
    p = oracle._prime(0)
    [(det, adj_rhs)] = oracle._eliminate_mod(
        np.array(rows, dtype=np.int64).reshape(size, size),
        np.array(rhs, dtype=np.int64).reshape(size, width), [p])
    assert det == bareiss_det([list(r) for r in rows]) % p
    if not det:
        assert adj_rhs is None
        return
    adj = adjugate([list(r) for r in rows])
    assert adj_rhs.tolist() == [
        [sum(adj[i][k] * rhs[k][j] for k in range(size)) % p
         for j in range(width)] for i in range(size)]


def test_eliminate_mod_with_a_residue_of_zero():
    # det = -2 * first: zero mod the first prime, which gives no adjugate.
    first, second = oracle._prime(0), oracle._prime(1)
    mat = np.array([[3 * first, 17], [first, 5]], dtype=np.int64)
    identity = np.eye(2, dtype=np.int64)
    assert oracle._eliminate_mod(mat, identity, [first])[0] == (0, None)
    [(det, adj)] = oracle._eliminate_mod(mat, identity, [second])
    assert det == -2 * first % second
    assert adj.tolist() == [[5, second - 17],
                            [(-first) % second, 3 * first % second]]


@PROPERTY
@given(rows=SQUARE_MATRICES, width=st.integers(0, 3), seed=st.integers())
@example(rows=[[0, 3], [3, 0]], width=1, seed=0)      # 3: a zero column
@example(rows=[[5, 1, 0], [1, 7, 2], [0, 2, 3]], width=2, seed=0)
def test_eliminate_mod_batch_with_small_primes(rows, width, seed):
    # With 3, 5 and 7 in the batch, zero pivots and zero residues are
    # common, and each prime must swap, flip its sign or stop on its own.
    size, rng = len(rows), random.Random(seed)
    rhs = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(size)]
    primes = [3, 5, 7, oracle._prime(0)]
    results = oracle._eliminate_mod(
        np.array(rows, dtype=np.int64).reshape(size, size),
        np.array(rhs, dtype=np.int64).reshape(size, width), primes)
    assert len(results) == len(primes)
    want = bareiss_det([list(r) for r in rows])
    adj = adjugate([list(r) for r in rows])
    for p, (det, adj_rhs) in zip(primes, results):
        assert det == want % p
        if not det:
            assert adj_rhs is None
            continue
        assert adj_rhs.tolist() == [
            [sum(adj[i][k] * rhs[k][j] for k in range(size)) % p
             for j in range(width)] for i in range(size)]


def test_eliminate_mod_on_grown_minors(corpus):
    # A grown graph's newest path vertices are eliminated as one round, and
    # with 3, 5 and 7 in the batch zero pivots come up in the middle of a
    # round, so rounds must give way to one pivot per step with swaps.
    # adj(M) mod p is the X with M @ X = X @ M = det * I mod p when det is
    # nonzero mod p; the cofactor reference checks it directly up to
    # order 12. Bareiss checks det up to 100 vertices, the closed-form tree
    # count above.
    primes = [3, 5, 7, oracle._prime(0)]
    for graph in corpus.values():
        base = bareiss_tree_count(graph)
        for n, g in [(2, 0), *((n, g) for n in (2, 3, 4) for g in (1, 2))]:
            grown = graphs.iterate_transform(graph, n, g)
            minor, _ = oracle._reduced_laplacian(grown, 0)
            trees = bareiss_tree_count(grown) if grown.vertex_count <= 100 \
                else invariants.spanning_trees_closed(
                    base, graph.vertex_count, len(graph.edges), n, g)
            identity = np.eye(len(minor), dtype=np.int64)
            cofactors = adjugate(minor.tolist()) if len(minor) <= 12 else None
            results = oracle._eliminate_mod(minor, identity, primes)
            for p, (det, adj) in zip(primes, results):
                assert det == trees % p
                if not det:
                    assert adj is None
                    continue
                assert np.array_equal(minor @ adj % p, det * identity)
                assert np.array_equal(adj @ minor % p, det * identity)
                if cofactors is not None:
                    assert adj.tolist() == [[v % p for v in row]
                                            for row in cofactors]


def test_a_grown_graph_is_eliminated_in_seven_rounds(monkeypatch):
    # Triangle n=2 g=5: the 243, 81, 27, 9 and 3 newest path vertices go
    # in one round per layer, then the last two vertices one by one. One
    # pivot per step would read 365 round starts per batch.
    grown = graphs.iterate_transform(complete_graph(3), 2, 5)
    assert grown.vertex_count == 366
    starts = []
    plan = oracle._rounds

    class Ends(tuple):
        def __getitem__(self, k):
            starts.append(k)
            return super().__getitem__(k)

    def spy(size, pattern):
        place, ends = plan(size, pattern)
        return place, Ends(ends)

    monkeypatch.setattr(oracle, "_rounds", spy)
    batches = []
    kernel = oracle._eliminate_mod
    monkeypatch.setattr(oracle, "_eliminate_mod", lambda mat, rhs, primes:
                        batches.append(primes) or kernel(mat, rhs, primes))
    assert oracle.matrix_tree_count(grown) \
        == invariants.spanning_trees_closed(3, 3, 3, 2, 5)
    assert starts == [0, 243, 324, 351, 360, 363, 364] * len(batches)


def test_batches_stay_within_the_byte_budget(monkeypatch):
    graph = random_connected_graph(random.Random(5), 30, 30)
    want = oracle.kirchhoff_tree_count(graph)
    budget = 2 * 8 * 29 * 58  # two primes of [L0 | I] at order 29
    monkeypatch.setattr(oracle, "MODULAR_BATCH_BYTES", budget)
    sizes = []
    kernel = oracle._eliminate_mod

    def spy(mat, rhs, primes):
        sizes.append(8 * len(primes) * len(mat) * (len(mat) + rhs.shape[1]))
        return kernel(mat, rhs, primes)

    monkeypatch.setattr(oracle, "_eliminate_mod", spy)
    assert oracle.kirchhoff_tree_count(graph) == want
    assert len(sizes) >= 2 and max(sizes) == budget


def test_kirchhoff_skips_primes_that_divide_the_tree_count(monkeypatch):
    # The Petersen graph has 2000 = 2**4 * 5**3 spanning trees. With 5 put
    # first in the prime list, the first elimination has a zero residue.
    primes = [5] + [oracle._prime(i) for i in range(4)]
    monkeypatch.setattr(oracle, "_PRIMES", primes)
    seen = []
    kernel = oracle._eliminate_mod

    def spy(mat, rhs, primes):
        results = kernel(mat, rhs, primes)
        seen.extend((p, det) for p, (det, _) in zip(primes, results))
        return results

    monkeypatch.setattr(oracle, "_eliminate_mod", spy)
    assert oracle.kirchhoff_tree_count(petersen_graph()) \
        == (Fraction(297), 2000)
    assert seen[0] == (5, 0)
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
