import pytest

from ngonspec import graphs

from conftest import cycle_graph, complete_graph, path_graph


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


@pytest.mark.parametrize("n,g", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_predicted_counts_match_explicit(n, g):
    base = cycle_graph(5)
    got = graphs.iterate_transform(base, n, g, 10**6)
    want = graphs.predict_counts(5, 5, n, g)
    assert (got.vertex_count, len(got.edges)) == (want.vertices, want.edges)


def test_predicted_counts_deep_iteration():
    want = graphs.predict_counts(3, 3, 2, 10)
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
