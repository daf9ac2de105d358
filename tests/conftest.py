import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ngonspec import aseries, graphs, invariants, spectrum


def complete_graph(nv):
    return graphs.make_graph(nv, [(i, j) for i in range(nv)
                                  for j in range(i + 1, nv)])


def path_graph(nv):
    return graphs.make_graph(nv, [(i, i + 1) for i in range(nv - 1)])


def cycle_graph(nv):
    return graphs.make_graph(nv, [(i, (i + 1) % nv) for i in range(nv)])


def star_graph(nv):
    return graphs.make_graph(nv, [(0, i) for i in range(1, nv)])


def petersen_graph():
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
    return graphs.make_graph(10, outer + spokes + inner)


def random_connected_graph(rng, nv, extra):
    """Random spanning tree plus `extra` further edges (multi-hits dropped)."""
    order = list(range(nv))
    rng.shuffle(order)
    edges = [(rng.choice(order[:i]), order[i]) for i in range(1, nv)]
    while len(edges) < nv - 1 + extra:
        u, v = rng.randrange(nv), rng.randrange(nv)
        if u != v:
            edges.append((u, v))
    return graphs.make_graph(nv, edges)


def build_corpus():
    corpus = {
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "P4": path_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "S5": star_graph(5),
        "Petersen": petersen_graph(),
    }
    rng = random.Random(2024)
    for i in range(5):
        corpus[f"R{i}"] = random_connected_graph(
            rng, rng.randint(4, 12), rng.randint(1, 6))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def poly_mul(p, q) -> list:
    """Exact product of two ascending coefficient vectors."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def bareiss_det(mat) -> int:
    """Exact determinant by Bareiss elimination; every division is exact.

    The reference for the oracle's multi-modular determinant. mat is a
    list of integer rows and is overwritten.
    """
    size = len(mat)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        row_k = mat[k]
        for i in range(k + 1, size):
            row_i = mat[i]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * mat[size - 1][size - 1]


def bareiss_tree_count(graph, drop=0) -> int:
    """Spanning-tree count as a Bareiss cofactor of the integer Laplacian."""
    count = graph.vertex_count
    lap = [[0] * count for _ in range(count)]
    for u, v in graph.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return bareiss_det([[lap[i][j] for j in range(count) if j != drop]
                        for i in range(count) if i != drop])


def _fraction_mat_mul(a, b):
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


def faddeev_leverrier_charpoly(mat) -> list:
    """det(xI - M) by the Faddeev-LeVerrier iteration, ascending coefficients."""
    size = len(mat)
    coeffs = [Fraction(0)] * (size + 1)
    coeffs[size] = Fraction(1)
    aux = [[Fraction(0)] * size for _ in range(size)]
    for k in range(1, size + 1):
        prod = _fraction_mat_mul(mat, aux)
        for i in range(size):
            prod[i][i] += coeffs[size - k + 1]
        trace = sum(sum(mat[i][j] * prod[j][i] for j in range(size))
                    for i in range(size))
        coeffs[size - k] = -trace / k
        aux = prod
    return coeffs


def faddeev_leverrier_invariants(graph):
    """Exact (kirchhoff, kemeny, spanning_trees) from the walk operator.

    The reference for invariants.exact_invariants: the characteristic
    polynomial of I - D^{-1}A in rational arithmetic. Kemeny's constant is
    -c2/c1 once the zero eigenvalue is factored out, and the nonzero
    eigenvalue product gives the tree count. Cost grows like N^4.
    """
    count = graph.vertex_count
    walk = [[Fraction(0)] * count for _ in range(count)]
    for i in range(count):
        walk[i][i] = Fraction(1)
    for u, v in graph.edges:
        walk[u][v] = -Fraction(1, graph.degrees[u])
        walk[v][u] = -Fraction(1, graph.degrees[v])
    coeffs = faddeev_leverrier_charpoly(walk)
    assert coeffs[0] == 0, "walk operator lost its zero eigenvalue"
    kemeny = -coeffs[2] / coeffs[1]
    edges = len(graph.edges)
    nonzero_product = (-1) ** (count - 1) * coeffs[1]
    trees = nonzero_product * math.prod(graph.degrees) / (2 * edges)
    assert trees.denominator == 1 and trees >= 1, trees
    return 2 * edges * kemeny, kemeny, int(trees)


def per_edge_lift(graph, n, vec, mu):
    """Lifted eigenvector written one edge and one path step at a time.

    The reference for spectrum.lift_eigenvector, which takes the same
    scalar steps on every edge's path at once; checks are left to it.
    """
    vec = np.asarray(vec, dtype=float)
    a_last = aseries.eval_a(n - 1, float(mu))
    a_prev = aseries.eval_a(n - 2, float(mu))
    scale = 1.0 / np.sqrt(np.asarray(graph.degrees, dtype=float))
    out = np.zeros(graph.vertex_count + (n - 1) * len(graph.edges))
    out[:graph.vertex_count] = vec
    step = 2.0 * (1.0 - mu)
    for e, (i, j) in enumerate(graph.edges):
        base = graph.vertex_count + e * (n - 1)
        seed = vec[i] * scale[i]
        out[base] = (a_prev / a_last) * seed + vec[j] * scale[j] / a_last
        if n >= 3:
            out[base + 1] = step * out[base] - seed
            for k in range(2, n - 1):
                out[base + k] = step * out[base + k - 1] - out[base + k - 2]
    return out


def merged(spec, tol=spectrum.SNAP_TOL):
    """(value, multiplicity) pairs of a Spectrum with near-equal values
    collapsed."""
    out = []
    for value, mult in zip(spec.values.tolist(),
                           spec.multiplicities.tolist()):
        if out and value - out[-1][0] <= tol:
            out[-1] = (out[-1][0], out[-1][1] + mult)
        else:
            out.append((value, mult))
    return out


def kirchhoff_step(kf0, n0: int, e0: int, n: int):
    """One-generation closed form for the multiplicative Kirchhoff index.

    The reference that invariants.kirchhoff_closed must agree with when
    iterated, and likewise kemeny_step and spanning_trees_step below.
    """
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    extra = (Fraction(2 * (n + 1) * (n * n - 1), 3) * e0 * e0
             - Fraction(2 * (n * n - 1), 3) * e0 * n0
             - Fraction((n * n - 1) * (n - 2), 3) * e0)
    return (n * n + n) * kf0 + invariants._as_kind(extra, kf0)


def kemeny_step(k0, n0: int, e0: int, n: int):
    """One-generation closed form for Kemeny's constant."""
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    extra = (Fraction((n * n - 1) * e0, 3) - Fraction((n - 1) * n0, 3)
             - Fraction((n - 1) * (n - 2), 6))
    return n * k0 + invariants._as_kind(extra, k0)


def spanning_trees_step(nst0: int, n0: int, e0: int, n: int) -> int:
    """One-generation spanning-tree count, exact."""
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    if e0 < n0 - 1:
        raise ValueError(f"counts N={n0}, E={e0} cannot be connected")
    return (n + 1) ** (n0 - 1) * n ** (e0 - n0 + 1) * nst0
