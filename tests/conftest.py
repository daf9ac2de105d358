import random

import pytest

from ngonspec import graphs


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
