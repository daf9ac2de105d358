import ast
import random
from pathlib import Path

import pytest

from ngonspec import graphs

from conftest import (build_corpus, cycle_graph, complete_graph,
                      grown_by_make_graph, path_graph, random_connected_graph)

LAW_BASES = {**build_corpus(),
             "R40": random_connected_graph(random.Random(40), 40, 20)}


def test_make_graph_normalizes_edges():
    g = graphs.make_graph(3, [(2, 0), (0, 1), (1, 0), (1, 2)])
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.degrees == (2, 2, 2)
    assert len(g.edges) == 3


def test_make_graph_rejects_bad_input():
    with pytest.raises(graphs.GraphError):
        graphs.make_graph(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(graphs.GraphError):
        graphs.make_graph(3, [(0, 1), (1, 3)])
    with pytest.raises(graphs.GraphError):
        graphs.make_graph(0, [])
    with pytest.raises(graphs.GraphError):
        graphs.make_graph(3, [(0, 1)])  # vertex 2 isolated


def test_bipartite_detection():
    assert complete_graph(2).bipartite
    assert cycle_graph(4).bipartite
    assert not cycle_graph(5).bipartite
    assert not complete_graph(3).bipartite
    assert path_graph(6).bipartite


def test_parse_edge_list():
    g = graphs.parse_edge_list("# a square\n0 1\n1 2\n\n2 3\n0 3\n")
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_parse_edge_list_reports_line_numbers():
    with pytest.raises(graphs.GraphError, match="line 2"):
        graphs.parse_edge_list("0 1\n1 two\n")
    with pytest.raises(graphs.GraphError, match="line 3"):
        graphs.parse_edge_list("0 1\n1 2\n3\n")


def test_parse_edge_list_rejects_disconnected():
    with pytest.raises(graphs.GraphError, match="connected"):
        graphs.parse_edge_list("0 1\n2 3\n")


def test_disconnected_error_counts_components():
    assert graphs.make_graph(6, [(0, 1), (2, 3), (4, 5)]).components == 3
    with pytest.raises(graphs.GraphError, match=r"\(3 components\)"):
        graphs.parse_edge_list("0 1\n2 3\n4 5\n")


def test_transform_square_from_single_edge():
    k2 = complete_graph(2)
    grown = graphs.polygon_transform(k2, 3)
    assert grown.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert grown.bipartite


def test_transform_labels_walk_from_smaller_endpoint():
    g = graphs.make_graph(3, [(0, 1), (1, 2)])
    grown = graphs.polygon_transform(g, 4)
    # edge 0 = (0,1): path 0-3-4-5-1; edge 1 = (1,2): path 1-6-7-8-2
    assert (0, 3) in grown.edges
    assert (3, 4) in grown.edges
    assert (4, 5) in grown.edges
    assert (1, 5) in grown.edges
    assert (1, 6) in grown.edges
    assert (2, 8) in grown.edges


def test_transform_degrees():
    c5 = cycle_graph(5)
    grown = graphs.polygon_transform(c5, 4)
    assert grown.degrees[:5] == (4, 4, 4, 4, 4)
    assert set(grown.degrees[5:]) == {2}


@pytest.mark.parametrize("n,expect", [(2, False), (3, True), (4, False),
                                      (5, True)])
def test_transform_bipartite_parity(n, expect):
    # odd path length keeps two-colorability, even length breaks it
    assert graphs.polygon_transform(cycle_graph(4), n).bipartite is expect


def test_transform_never_bipartite_from_odd_cycle():
    for n in range(2, 6):
        assert not graphs.polygon_transform(cycle_graph(5), n).bipartite


@pytest.mark.parametrize("name", sorted(LAW_BASES))
def test_transform_from_the_growth_law_equals_make_graph(name):
    for n in range(2, 8):
        law = reference = LAW_BASES[name]
        for _ in range(2):
            law = graphs.polygon_transform(law, n)
            reference = grown_by_make_graph(reference, n)
            assert law == reference, (name, n)


def test_iterate_transform_never_calls_make_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("make_graph called")
    monkeypatch.setattr(graphs, "make_graph", refuse)
    for graph in LAW_BASES.values():
        for n in range(2, 8):
            grown = graphs.iterate_transform(graph, n, 2)
            assert grown.vertex_count == graph.counts.grown(n, 2).vertices


def test_parse_names_the_smallest_unused_id():
    with pytest.raises(graphs.GraphError, match="^vertex 3 has no edges$"):
        graphs.parse_edge_list("0 1\n1 2\n2 4\n6 0\n")


@pytest.mark.parametrize("n,g", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_predicted_counts_match_explicit(n, g):
    base = cycle_graph(5)
    got = graphs.iterate_transform(base, n, g, 10**6)
    want = base.counts.grown(n, g)
    assert (got.vertex_count, len(got.edges)) == (want.vertices, want.edges)


def test_predicted_counts_deep_iteration():
    want = complete_graph(3).counts.grown(2, 10)
    nv, ne = 3, 3
    for _ in range(10):
        nv, ne = nv + ne, 3 * ne
    assert (want.vertices, want.edges) == (nv, ne) == (88575, 177147)


def test_iterate_zero_steps_is_identity():
    g = cycle_graph(4)
    assert graphs.iterate_transform(g, 3, 0, 100) is g


def test_cap_enforced_before_building():
    with pytest.raises(graphs.CapExceededError) as err:
        graphs.iterate_transform(complete_graph(3), 5, 8, 100000)
    assert err.value.predicted > err.value.cap == 100000


@pytest.mark.parametrize("name", sorted(LAW_BASES))
def test_growth_law_matches_explicit_graphs(name):
    # Counts from the law against the built graph, with bipartiteness found
    # by make_graph's breadth-first colouring rather than by the law.
    base = LAW_BASES[name]
    for n in range(2, 8):
        step = base.counts
        for g in range(3):
            built = graphs.iterate_transform(base, n, g, 10**5)
            searched = graphs.make_graph(built.vertex_count, built.edges)
            want = graphs.GrowthCounts(built.vertex_count, len(built.edges),
                                       searched.bipartite)
            assert base.counts.grown(n, g) == step == want, (name, n, g)
            step = step.grown(n)


@pytest.mark.parametrize("counts, n, g, message", [
    (graphs.GrowthCounts(1, 1, True), 2, 1, "invalid base counts N=1, E=1"),
    (graphs.GrowthCounts(3, 0, False), 2, 1, "invalid base counts N=3, E=0"),
    (graphs.GrowthCounts(3, 3, False), 1, 1, "polygon parameter must be"),
    (graphs.GrowthCounts(3, 3, False), 2, -1, "generation must be"),
])
def test_growth_law_rejects_invalid_inputs(counts, n, g, message):
    with pytest.raises(graphs.GraphError, match=message):
        counts.grown(n, g)


def test_only_graphs_builds_growth_counts():
    # The growth law lives in graphs.GrowthCounts.grown; every other module
    # takes its counts from there or from Graph.counts.
    package = Path(graphs.__file__).parent
    builders = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and ast.unparse(node.func).split(".")[-1] \
                    == "GrowthCounts":
                builders.add(path.name)
    assert builders == {"graphs.py"}
