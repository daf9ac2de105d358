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
