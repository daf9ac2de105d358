import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from ngonspec import cli, graphs, oracle, roots, spectrum

from conftest import (build_corpus, complete_graph, cycle_graph, merged,
                      path_graph, per_edge_lift, random_connected_graph,
                      spectrum_from_entries, star_graph)


def entry_tuples(spec, digits=10):
    return [(round(e.value, digits), e.multiplicity, e.source)
            for e in spec.entries]


def test_base_spectrum_single_edge():
    spec, ctx = spectrum.base_spectrum(complete_graph(2))
    assert entry_tuples(spec) == [(0.0, 1, "zero"), (2.0, 1, "two")]
    assert ctx == graphs.GrowthCounts(2, 1, True)


def test_base_spectrum_triangle():
    spec, ctx = spectrum.base_spectrum(complete_graph(3))
    assert entry_tuples(spec) == [(0.0, 1, "zero"), (1.5, 2, "base")]
    assert not ctx.bipartite


def test_base_spectrum_square_and_star():
    spec, _ = spectrum.base_spectrum(cycle_graph(4))
    assert entry_tuples(spec) == [(0.0, 1, "zero"), (1.0, 2, "base"),
                                  (2.0, 1, "two")]
    spec, _ = spectrum.base_spectrum(star_graph(5))
    assert entry_tuples(spec) == [(0.0, 1, "zero"), (1.0, 3, "base"),
                                  (2.0, 1, "two")]


def source_labels(spec):
    """Each row's export tag as str, from the label rows and row codes of
    cli.source_labels."""
    labels, codes = cli.source_labels(spec)
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in labels[codes]]


def test_transform_triangle_worked_example():
    spec, ctx = spectrum.base_spectrum(complete_graph(3))
    out, out_ctx = spectrum.transform_spectrum(spec, ctx, 2)
    assert entry_tuples(out) == [(0.0, 1, "zero"), (0.75, 2, "lifted"),
                                 (1.5, 3, "family-plus")]
    assert source_labels(out)[1] == "lifted(1.5)"
    assert merged(out) == [(0.0, 1), (0.75, 2), (1.5, 3)]
    assert out_ctx == graphs.GrowthCounts(6, 9, False)


def test_transform_edge_to_square():
    spec, ctx = spectrum.base_spectrum(complete_graph(2))
    out, out_ctx = spectrum.transform_spectrum(spec, ctx, 3)
    assert entry_tuples(out) == [(0.0, 1, "zero"), (1.0, 2, "family-zero"),
                                 (2.0, 1, "two")]
    assert out_ctx.bipartite


def test_multiplicity_ledger_closes(corpus):
    for graph in corpus.values():
        spec, ctx = spectrum.base_spectrum(graph)
        for n in range(2, 8):
            out, out_ctx = spectrum.transform_spectrum(spec, ctx, n)
            want = ctx.grown(n, 1)
            assert out.total_multiplicity == want.vertices
            assert (out_ctx.vertices, out_ctx.edges) \
                == (want.vertices, want.edges)


def test_trace_equals_vertex_count(corpus):
    # the normalized Laplacian has unit diagonal, so the eigenvalue sum is N
    for graph in corpus.values():
        spec, ctx = spectrum.base_spectrum(graph)
        for n in (2, 5):
            out, out_ctx = spectrum.transform_spectrum(spec, ctx, n)
            trace = sum(e.value * e.multiplicity for e in out.entries)
            assert abs(trace - out_ctx.vertices) < 1e-8 * out_ctx.vertices


def test_bipartite_symmetry_survives_odd_growth():
    spec, ctx = spectrum.base_spectrum(cycle_graph(4))
    *_, (out, out_ctx) = spectrum.iterate_spectrum(spec, ctx, 3, 2)
    assert out_ctx.bipartite
    pairs = merged(out, 1e-9)
    mirrored = sorted((2.0 - v, m) for v, m in pairs)
    for (v, m), (w, k) in zip(pairs, mirrored):
        assert abs(v - w) < 1e-9
        assert m == k


def test_values_near_two_are_lifted_unless_tagged_two():
    # Only the row tagged two is the eigenvalue 2, as only the row tagged
    # zero is 0; a base value 1e-13 below 2 has transfer roots of its own.
    spec = spectrum_from_entries([
        spectrum.SpectrumEntry(0.0, 1, "zero"),
        spectrum.SpectrumEntry(1.5, 1, "base"),
        spectrum.SpectrumEntry(2.0 - 1e-13, 1, "base")])
    ctx = graphs.GrowthCounts(3, 3, False)
    for _ in range(2):
        spec, ctx = spectrum.transform_spectrum(spec, ctx, 3)
        assert spec.total_multiplicity == ctx.vertices
    assert ctx.vertices == 3 + 2 * 3 + 2 * 12


def test_even_growth_removes_top_eigenvalue():
    spec, ctx = spectrum.base_spectrum(complete_graph(2))
    out, out_ctx = spectrum.transform_spectrum(spec, ctx, 2)
    assert not out_ctx.bipartite
    assert max(e.value for e in out.entries) < 2.0 - 1e-6


def test_iterate_yields_each_generation_in_turn():
    spec, ctx = spectrum.base_spectrum(cycle_graph(5))
    assert list(spectrum.iterate_spectrum(spec, ctx, 4, 0)) == []
    with pytest.raises(ValueError):
        next(spectrum.iterate_spectrum(spec, ctx, 4, -1))
    want = [(spec, ctx)]
    for g, (got, got_ctx) in enumerate(
            spectrum.iterate_spectrum(spec, ctx, 4, 3), 1):
        want.append(spectrum.transform_spectrum(*want[-1], 4))
        assert got_ctx == want[-1][1] == ctx.grown(4, g)
        assert got.values.tobytes() == want[-1][0].values.tobytes()
    assert g == 3


def test_iterated_transfer_matches_oracle():
    base = path_graph(4)
    spec, ctx = spectrum.base_spectrum(base)
    *_, (out, _) = spectrum.iterate_spectrum(spec, ctx, 4, 2)
    built = graphs.iterate_transform(base, 4, 2, 10**5)
    want = oracle.eig_sym(oracle.normalized_laplacian(built))
    report = oracle.compare_spectra(out.expanded(), want, 1e-8)
    assert report.matched


def test_columns_are_ordered_and_round_trip(corpus):
    for graph in corpus.values():
        for n in range(2, 8):
            spec, ctx = spectrum.base_spectrum(graph)
            for g in range(3):
                if g:
                    spec, ctx = spectrum.transform_spectrum(spec, ctx, n)
                keys = [(e.value, e.source,
                         -1.0 if e.origin is None else e.origin)
                        for e in spec.entries]
                assert keys == sorted(keys)
                assert len(spec.entries) == len(spec.values)
                again = spectrum_from_entries(spec.entries)
                for column in ("values", "sources", "origins"):
                    want, got = getattr(spec, column), getattr(again, column)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
                assert again.multiplicities.tolist() \
                    == spec.multiplicities.tolist()


def test_multiplicities_outgrow_64_bits():
    big = 2 ** 70
    spec = spectrum_from_entries((
        spectrum.SpectrumEntry(0.0, 1, "zero"),
        spectrum.SpectrumEntry(1.5, big, "base")))
    ctx = graphs.GrowthCounts(big + 1, 2 * big, False)
    out, out_ctx = spectrum.transform_spectrum(spec, ctx, 3)
    assert out_ctx.vertices == big + 1 + 2 * 2 * big
    assert out.total_multiplicity == out_ctx.vertices
    mults = out.multiplicities.tolist()
    assert all(type(m) is int for m in mults)
    assert max(mults) > 2 ** 64


def test_input_validation():
    ctx = graphs.GrowthCounts(3, 3, False)
    good = spectrum_from_entries((
        spectrum.SpectrumEntry(0.0, 1, "zero"),
        spectrum.SpectrumEntry(1.5, 2, "base")))
    with pytest.raises(ValueError):
        spectrum.transform_spectrum(good, ctx, 1)
    bad_total = spectrum_from_entries(good.entries[:1])
    with pytest.raises(ValueError):
        spectrum.transform_spectrum(bad_total, ctx, 2)
    no_zero = spectrum_from_entries((
        spectrum.SpectrumEntry(1.5, 3, "base"),))
    with pytest.raises(ValueError):
        spectrum.transform_spectrum(no_zero, ctx, 2)
    out_of_range = spectrum_from_entries((
        spectrum.SpectrumEntry(0.0, 1, "zero"),
        spectrum.SpectrumEntry(2.5, 2, "base")))
    with pytest.raises(ValueError):
        spectrum.transform_spectrum(out_of_range, ctx, 2)
    sparse = graphs.GrowthCounts(5, 3, False)
    with pytest.raises(ValueError):
        spectrum.transform_spectrum(good, sparse, 2)


def eigenpair(graph, index):
    lap = oracle.normalized_laplacian(graph).entries
    w, v = np.linalg.eigh(lap)
    return float(w[index]), v[:, index]


def test_lift_triangle_eigenvector():
    k3 = complete_graph(3)
    lam, vec = eigenpair(k3, 2)
    assert abs(lam - 1.5) < 1e-12
    out = spectrum.lift_eigenvector(k3, 2, lam, vec, 0.75)
    grown = graphs.polygon_transform(k3, 2)
    lap = oracle.normalized_laplacian(grown).entries
    residual = np.linalg.norm(lap @ out - 0.75 * out) / np.linalg.norm(out)
    assert residual < 1e-12
    assert np.allclose(out[:3], vec)


def test_lift_all_transfer_roots_of_a_cycle():
    from ngonspec import roots
    c5 = cycle_graph(5)
    grown = graphs.polygon_transform(c5, 3)
    lap = oracle.normalized_laplacian(grown).entries
    for index in (1, 3):
        lam, vec = eigenpair(c5, index)
        for mu in roots.solve_lambda_equation(3, lam).tolist():
            out = spectrum.lift_eigenvector(c5, 3, lam, vec, mu)
            residual = np.linalg.norm(lap @ out - mu * out) \
                / np.linalg.norm(out)
            assert residual < 1e-10


def test_lift_is_linear_in_the_eigenvector():
    from ngonspec import roots
    k4 = complete_graph(4)
    lam, vec = eigenpair(k4, 2)
    mu = roots.solve_lambda_equation(5, lam).tolist()[0]
    single = spectrum.lift_eigenvector(k4, 5, lam, vec, mu)
    doubled = spectrum.lift_eigenvector(k4, 5, lam, 2.0 * vec, mu)
    assert np.allclose(doubled, 2.0 * single, atol=1e-13)


def test_lift_rejects_bad_input():
    k3 = complete_graph(3)
    lam, vec = eigenpair(k3, 2)
    with pytest.raises(ValueError):
        spectrum.lift_eigenvector(k3, 2, lam, vec[:2], 0.75)
    with pytest.raises(ValueError):
        spectrum.lift_eigenvector(k3, 2, lam, np.zeros(3), 0.75)
    with pytest.raises(ValueError):
        spectrum.lift_eigenvector(k3, 2, 1.2, vec, 0.6)
    with pytest.raises(ValueError):
        # a_{n-1} vanishes at mu = 1 for n = 2
        spectrum.lift_eigenvector(k3, 2, lam, vec, 1.0)


@pytest.mark.parametrize("at", [0, 1, 2])
def test_lift_rejects_a_family_root_anywhere_in_the_block(at):
    c5 = cycle_graph(5)
    lam, vec = eigenpair(c5, 1)
    mus = roots.solve_lambda_many(4, [lam])[0]
    block = np.insert(mus, at, 1.0)  # a_3(1) = U_3(0) = 0
    with pytest.raises(ValueError, match="fixed family"):
        spectrum.lift_eigenvector(c5, 4, lam, vec, block)


def assert_lift_matches_per_edge(graph, ns, stride=1):
    """lift_eigenvector has the reference's bits for every transfer root of
    every stride-th eigenpair off {0, 2}, one root at a time and as one
    block of all roots; returns the number of lifts."""
    lap = oracle.normalized_laplacian(graph).entries
    values, vectors = np.linalg.eigh(lap)
    inner = [k for k, value in enumerate(values.tolist())
             if 1e-9 < value < 2.0 - 1e-9]
    lifts = 0
    for k in inner[::stride]:
        lam, vec = float(values[k]), vectors[:, k]
        for n in ns:
            mus = roots.solve_lambda_many(n, [lam])[0]
            block = spectrum.lift_eigenvector(graph, n, lam, vec, mus)
            assert block.shape == (
                len(mus), graph.vertex_count + (n - 1) * len(graph.edges))
            for row, mu in zip(block, mus.tolist()):
                got = spectrum.lift_eigenvector(graph, n, lam, vec, mu)
                assert np.array_equal(got, per_edge_lift(graph, n, vec, mu))
                assert np.array_equal(row, got)
                lifts += 1
    return lifts


def test_lift_matches_per_edge_reference_on_corpus(corpus):
    assert sum(assert_lift_matches_per_edge(graph, range(2, 8))
               for graph in corpus.values()) > 500


def test_lift_matches_per_edge_reference_at_high_n():
    graph = random_connected_graph(random.Random(40), 40, 20)
    assert assert_lift_matches_per_edge(graph, range(10, 33), stride=13) > 500


def test_source_labels_match_the_entries(corpus):
    for graph in corpus.values():
        *_, (spec, _) = spectrum.iterate_spectrum(
            *spectrum.base_spectrum(graph), 3, 2)
        assert source_labels(spec) == [
            f"lifted({e.origin:.17g})" if e.source == "lifted" else e.source
            for e in spec.entries]
        # one label row per tag and per distinct lifted origin
        labels, codes = cli.source_labels(spec)
        origins = {e.origin for e in spec.entries if e.source == "lifted"}
        assert labels.dtype == np.uint8 and len(codes) == len(spec.entries)
        assert len(labels) == len(spectrum.SOURCES) + len(origins)


def test_row_count_matches_the_assembled_rows(corpus):
    # at n = 2 the count skips ahead from the third step, so g = 3 and 4
    # check the skip
    for graph in corpus.values():
        spec, counts = spectrum.base_spectrum(graph)
        for n in range(2, 10):
            grown = [spec, *(out for out, _ in spectrum.iterate_spectrum(
                spec, counts, n, 4))]
            assert [spectrum.row_count(spec, counts, n, g, 2 ** 62)
                    for g in range(5)] \
                == [(g, len(out.values)) for g, out in enumerate(grown)]


def test_row_count_stops_at_the_first_generation_past_the_cap():
    spec, counts = spectrum.base_spectrum(complete_graph(3))
    assert spectrum.row_count(spec, counts, 3, 30, 10 ** 6) == (19, 1_835_006)
    assert spectrum.row_count(spec, counts, 3, 18, 10 ** 6) == (18, 917_502)
    assert spectrum.row_count(spec, counts, 3, 30, 2) == (1, 5)
    # at n = 2 it goes straight to g, two rows a step from the third
    assert spectrum.row_count(spec, counts, 2, 2_097_152, 2 ** 22) \
        == (2_097_152, 4_194_305)


def test_cached_family_roots_leave_the_transfer_unchanged(monkeypatch,
                                                          corpus):
    def grown():
        return [[*spectrum.iterate_spectrum(*spectrum.base_spectrum(graph),
                                            n, 3)][-1][0]
                for graph in (corpus["Petersen"], corpus["C4"])
                for n in (3, 4)]

    roots.roots_of_family.cache_clear()
    cold, warm = grown(), grown()
    assert roots.roots_of_family.cache_info().hits > 0
    monkeypatch.setattr(roots, "roots_of_family",
                        roots.roots_of_family.__wrapped__)
    uncached = grown()
    for want, *others in zip(cold, warm, uncached):
        for got in others:
            for column in ("values", "sources", "origins"):
                assert np.array_equal(getattr(got, column),
                                      getattr(want, column))
            assert got.multiplicities.tolist() \
                == want.multiplicities.tolist()


def chained(base, n, limit):
    """transform_spectrum applied alone, generation after generation, up to
    g = 6 or until the spectrum has more than limit entries."""
    chain = [base]
    while len(chain) <= 6 and len(chain[-1][0].values) <= limit:
        chain.append(spectrum.transform_spectrum(*chain[-1], n))
    return len(chain) - 1, chain[-1]


def test_reused_rows_equal_a_fresh_solve(monkeypatch, corpus):
    solve = roots.solve_lambda_many
    calls = []

    def counted(run):
        calls.clear()
        monkeypatch.setattr(roots, "solve_lambda_many", lambda n, lams: (
            calls.append(np.asarray(lams)) or solve(n, lams)))
        result = run()
        monkeypatch.setattr(roots, "solve_lambda_many", solve)
        return result, sum(map(len, calls))

    fresh = reused = 0
    for graph in corpus.values():  # K3 at n = 2: base 1.5 is a family root
        base = spectrum.base_spectrum(graph)
        for n in range(2, 10):
            (g, (want, want_counts)), rows = counted(
                lambda: chained(base, n, 2000))
            fresh += rows
            (got, got_counts), rows = counted(
                lambda: [*spectrum.iterate_spectrum(*base, n, g)][-1])
            reused += rows
            assert got_counts == want_counts
            for column in ("values", "sources", "origins"):
                assert getattr(got, column).tobytes() \
                    == getattr(want, column).tobytes()
            assert got.multiplicities.tolist() \
                == want.multiplicities.tolist()
            # each call solves distinct values the call before did not have
            for before, lams in zip([np.empty(0)] + calls, calls):
                assert len(np.unique(lams)) == len(lams)
                assert not np.isin(lams, before).any()
    assert reused < 0.9 * fresh

def test_reusing_solver_solves_each_new_value_once(monkeypatch):
    solve = roots.solve_lambda_many
    calls = []
    monkeypatch.setattr(roots, "solve_lambda_many",
                        lambda n, lams: calls.append(lams) or solve(n, lams))
    reusing = spectrum._reusing_solver(5)
    first = np.array([0.25, 0.5, 0.5, 1.5])
    second = np.array([0.5, 0.75, 0.75, 1.5, 1.75])
    for lams in (first, second, np.empty(0)):
        assert reusing(lams).tobytes() == solve(5, lams).tobytes()
    assert [lams.tolist() for lams in calls] \
        == [[0.25, 0.5, 1.5], [0.75, 1.75], []]


def test_only_the_generation_loop_chains_the_transfer():
    # Every generation is grown by iterate_spectrum, so parents repeated
    # from one generation to the next are solved once.
    def calls(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and ast.unparse(call.func).split(".")[-1]
                == "transform_spectrum"]

    package = Path(spectrum.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in package.glob("*.py")}
    assert {name: len(calls(tree)) for name, tree in trees.items()
            if calls(tree)} == {"spectrum.py": 1}
    loop, = [node for node in ast.walk(trees["spectrum.py"])
             if isinstance(node, ast.FunctionDef)
             and node.name == "iterate_spectrum"]
    assert len(calls(loop)) == 1
