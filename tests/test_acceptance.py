"""Acceptance suite: one test per criterion, one pass/fail line each.

Shared transfer runs cover the fixed corpus (complete graphs K2..K4, path
P4, cycles C4/C5, the 5-vertex star, the Petersen graph, and five seeded
random connected graphs with at most 12 vertices) for n = 2..7, one
growth step always and a second step whenever the result stays within
500 vertices.
"""

import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from ngonspec import aseries, cli, graphs, invariants, oracle, roots, spectrum

from conftest import (family_polynomial, poly_mul, random_connected_graph,
                      root_checksums, spectrum_from_entries, vieta_sums)

SPECTRUM_TOL = 1e-8
INVARIANT_REL_TOL = 1e-9
IDENTITY_TOL = 1e-10
LIFT_TOL = 1e-8
PERF_BUDGET_SECONDS = 1.0
HIGH_N = (28, 40, 64, 128, 301)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@dataclass
class TransferRun:
    name: str
    n: int
    g: int
    theory: spectrum.Spectrum
    ctx: graphs.GrowthCounts
    built: graphs.Graph
    deviation: float


@pytest.fixture(scope="module")
def transfer_runs(corpus):
    runs = []
    for name, base in corpus.items():
        spec, ctx = spectrum.base_spectrum(base)
        for n in range(2, 8):
            gens = [1]
            if base.counts.grown(n, 2).vertices <= 500:
                gens.append(2)
            for g in gens:
                built = graphs.iterate_transform(base, n, g, 10**6)
                *_, (theory, out_ctx) = spectrum.iterate_spectrum(
                    spec, ctx, n, g)
                numeric = oracle.eig_sym(oracle.normalized_laplacian(built))
                comparison = oracle.compare_spectra(theory.expanded(),
                                                    numeric, SPECTRUM_TOL)
                deviation = comparison.max_abs_deviation
                runs.append(TransferRun(name, n, g, theory, out_ctx, built,
                                        deviation))
    return runs


def test_criterion_1_spectrum_transfer_matches_oracle(transfer_runs):
    worst = max(run.deviation for run in transfer_runs)
    bad = [(run.name, run.n, run.g) for run in transfer_runs
           if run.deviation > SPECTRUM_TOL]
    report(1, not bad,
           f"{len(transfer_runs)} runs, worst |dλ| = {worst:.3e}"
           + (f", failing: {bad}" if bad else ""))


def test_criterion_2_multiplicity_ledger_is_exact(corpus, transfer_runs):
    bad = []
    for run in transfer_runs:
        base = corpus[run.name]
        predicted = base.counts.grown(run.n, run.g).vertices
        if run.theory.total_multiplicity != predicted \
                or run.ctx.vertices != predicted \
                or run.built.vertex_count != predicted:
            bad.append((run.name, run.n, run.g))
    report(2, not bad, f"{len(transfer_runs)} ledgers closed"
           + (f", failing: {bad}" if bad else ""))


def test_criterion_3_spanning_tree_counts_are_exact(corpus, transfer_runs):
    checked = 0
    bad = []
    base_trees = {name: oracle.matrix_tree_count(g)
                  for name, g in corpus.items()}
    for run in transfer_runs:
        if run.built.vertex_count > 300:
            continue
        base = corpus[run.name]
        closed = invariants.spanning_trees_closed(
            base_trees[run.name], base.vertex_count, len(base.edges),
            run.n, run.g)
        if closed != oracle.matrix_tree_count(run.built):
            bad.append((run.name, run.n, run.g))
        checked += 1
    worked_one = invariants.spanning_trees_closed(3, 3, 3, 2, 1)
    worked_two = invariants.spanning_trees_closed(3, 3, 3, 2, 2)
    direct_two = oracle.matrix_tree_count(
        graphs.iterate_transform(corpus["K3"], 2, 2, 10**5))
    ok = not bad and worked_one == 54 and worked_two == direct_two == 209952
    report(3, ok, f"{checked} counts equal, tau_2(K3) -> 54, "
                  f"tau_2^2(K3) -> {direct_two}"
           + (f", failing: {bad}" if bad else ""))


def test_criterion_4_invariant_closed_forms(corpus):
    worst = 0.0
    cases = 0
    for name, base in corpus.items():
        n0, e0 = base.vertex_count, len(base.edges)
        spec, ctx = spectrum.base_spectrum(base)
        product0 = invariants.degree_product(base)
        base_report = invariants.invariants_from_spectrum(spec, ctx, product0)
        kf0 = base_report.kirchhoff_multiplicative
        k0 = base_report.kemeny
        for n in range(2, 8):
            spec_t, ctx_t = spec, ctx
            for g in range(1, 4):
                spec_t, ctx_t = spectrum.transform_spectrum(spec_t, ctx_t, n)
                measured = invariants.invariants_from_spectrum(
                    spec_t, ctx_t,
                    invariants.degree_product_closed(product0, ctx, n, g))
                kf_closed = invariants.kirchhoff_closed(kf0, n0, e0, n, g)
                k_closed = invariants.kemeny_closed(k0, n0, e0, n, g)
                worst = max(
                    worst,
                    abs(measured.kirchhoff_multiplicative - kf_closed)
                    / kf_closed,
                    abs(measured.kemeny - k_closed) / k_closed)
                cases += 1
    exact = invariants.exact_invariants(
        graphs.polygon_transform(corpus["K3"], 2))
    ok = worst <= INVARIANT_REL_TOL \
        and exact[:2] == (Fraction(84), Fraction(14, 3))
    report(4, ok, f"{cases} cases, worst relative error {worst:.3e}, "
                  f"exact tau_2(K3) = ({exact[0]}, {exact[1]})")


def test_criterion_5_vieta_identities():
    from test_roots import VIETA_FAMILY, matching_n
    rng = random.Random(61)
    worst = 0.0
    checks = 0
    for kind in roots.FamilyKind:
        for n in matching_n(kind):
            family = roots.RootFamily(kind, n)
            recip, prod = vieta_sums(family_polynomial(family))
            want_recip, want_prod = VIETA_FAMILY[kind](n)
            assert (recip, prod) == (want_recip, want_prod)
            got_recip, got_prod = root_checksums(
                roots.roots_of_family(family))
            worst = max(worst, abs(got_recip - want_recip),
                        abs(got_prod - want_prod))
            checks += 2
    for n in range(2, 16):
        for _ in range(50):
            lam = rng.uniform(1e-3, 2 - 1e-3)
            got_recip, got_prod = root_checksums(
                roots.solve_lambda_equation(n, lam))
            if n % 2:
                want_recip = n / lam + ((n - 1) / 2) ** 2
                want_prod = lam / 2 ** ((n - 1) // 2)
            else:
                want_recip = n / lam + (n * n - 2 * n) / 4
                want_prod = lam / 2 ** (n // 2)
            worst = max(worst,
                        abs(got_recip - want_recip) / want_recip,
                        abs(got_prod - want_prod) / abs(want_prod))
            checks += 2
    report(5, worst <= IDENTITY_TOL,
           f"{checks} identities, worst error {worst:.3e}")


def test_criterion_6_recurrence_identity_suite():
    worst = 0.0
    for n in range(2, 31):
        full = list(aseries.coeffs_a(n))
        reflected = [Fraction(0)] * (n + 1)
        for k, c in enumerate(full):
            for i in range(k + 1):
                reflected[i] += c * math.comb(k, i) * 2 ** (k - i) * (-1) ** i
        assert reflected == [c if n % 2 == 0 else -c for c in full]
        if n % 2:
            h = (n + 1) // 2
            split = poly_mul(
                aseries.linear_combination([(1, h), (-1, h - 2)]),
                list(aseries.coeffs_a(h - 1)))
            shifted = poly_mul(
                aseries.linear_combination([(1, h - 1), (-1, h - 2)]),
                aseries.linear_combination([(1, h), (1, h - 1)]))
        else:
            h = n // 2
            split = poly_mul(
                aseries.linear_combination([(1, h), (-1, h - 1)]),
                aseries.linear_combination([(1, h), (1, h - 1)]))
            shifted = poly_mul(
                aseries.linear_combination([(1, h), (-1, h - 2)]),
                list(aseries.coeffs_a(h)))
        assert split == full
        plus_one = full.copy()
        plus_one[0] += 1
        assert shifted == plus_one
    for n in range(51):
        vec = aseries.coeffs_a(n)
        assert vec[0] == n + 1
        if n >= 1:
            assert 3 * vec[1] == -(n ** 3 + 3 * n ** 2 + 2 * n)
        assert vec[n] == (-1) ** n * 2 ** n
    plus_kinds = (roots.FamilyKind.ODD_ZERO, roots.FamilyKind.EVEN_PLUS)
    one_kinds = {roots.FamilyKind.ODD_MINUS: 1, roots.FamilyKind.EVEN_MINUS: 1,
                 roots.FamilyKind.ODD_PLUS: -1, roots.FamilyKind.EVEN_ZERO: -1}
    for kind in roots.FamilyKind:
        start = 3 if kind.odd else 2
        for n in range(start, 16, 2):
            for mu in roots.roots_of_family(
                    roots.RootFamily(kind, n)).tolist():
                if kind in plus_kinds:
                    worst = max(worst, abs(aseries.eval_a(n - 1, mu) + 1),
                                abs(aseries.eval_a(n - 2, mu)
                                    + 2 * (1 - mu)))
                else:
                    worst = max(worst, abs(aseries.eval_a(n - 2, mu)
                                           - one_kinds[kind]))
    report(6, worst <= IDENTITY_TOL,
           f"exact identities n<=50, root value checks worst {worst:.3e}")


def test_criterion_7_eigenvector_lifting(corpus):
    rng = random.Random(71)
    names = [name for name in sorted(corpus)
             if corpus[name].vertex_count > 2]  # a lone edge has only {0, 2}
    worst = 0.0
    done = 0
    while done < 20:
        base = corpus[names[done % len(names)]]
        n = rng.randint(2, 7)
        lap = oracle.normalized_laplacian(base).entries
        values, vectors = np.linalg.eigh(lap)
        usable = [i for i, v in enumerate(values)
                  if 1e-6 < v < 2 - 1e-6]
        index = rng.choice(usable)
        lam = float(values[index])
        vec = vectors[:, index]
        mu_options = roots.solve_lambda_equation(n, lam).tolist()
        mu = mu_options[rng.randrange(len(mu_options))]
        lifted = spectrum.lift_eigenvector(base, n, lam, vec, mu)
        grown = graphs.polygon_transform(base, n)
        grown_lap = oracle.normalized_laplacian(grown).entries
        residual = float(np.linalg.norm(grown_lap @ lifted - mu * lifted)
                         / np.linalg.norm(lifted))
        worst = max(worst, residual)
        done += 1
    report(7, worst <= LIFT_TOL, f"20 lifts, worst residual {worst:.3e}")


def test_criterion_8_small_polygon_pipelines(transfer_runs):
    small = [run for run in transfer_runs if run.n in (2, 3, 4)]
    bad = [(run.name, run.n, run.g) for run in small
           if run.deviation > SPECTRUM_TOL]
    report(8, bool(small) and not bad,
           f"n in {{2,3,4}} subset: {len(small)} runs match the oracle")


def test_criterion_9_scale_and_performance():
    rng = random.Random(97)
    values = sorted({rng.uniform(0.005, 1.995) for _ in range(1100)})[:999]
    entries = [spectrum.SpectrumEntry(0.0, 1, spectrum.SOURCE_ZERO)]
    entries.extend(spectrum.SpectrumEntry(v, 1, spectrum.SOURCE_BASE)
                   for v in values)
    spec = spectrum_from_entries(entries)
    ctx = graphs.GrowthCounts(1000, 1500, False)
    start = time.perf_counter()
    *_, (out, out_ctx) = spectrum.iterate_spectrum(spec, ctx, 9, 1)
    transfer_seconds = time.perf_counter() - start
    assert out.total_multiplicity == out_ctx.vertices == 1000 + 8 * 1500

    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    big_edges = 10 ** 5000 + 7
    big_vertices = 10 ** 4999
    start = time.perf_counter()
    kf = invariants.kirchhoff_closed(Fraction(12345, 7), big_vertices,
                                     big_edges, 7, 3)
    invariants.kemeny_closed(Fraction(999, 13), big_vertices, big_edges, 7, 3)
    trees = invariants.spanning_trees_closed(3, 200, 500, 7, 3)
    closed_seconds = time.perf_counter() - start
    digits = max(len(str(kf.numerator)), len(str(trees)))
    ok = transfer_seconds < PERF_BUDGET_SECONDS \
        and closed_seconds < PERF_BUDGET_SECONDS and digits >= 10000
    report(9, ok, f"transfer {transfer_seconds * 1000:.0f} ms, "
                  f"closed forms {closed_seconds * 1000:.1f} ms, "
                  f"{digits}-digit integers")


def test_criterion_9_exact_mode_at_40_vertices(tmp_path, capsys):
    base = random_connected_graph(random.Random(40), 40, 40)
    path = tmp_path / "base.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in base.edges))
    start = time.perf_counter()
    code = cli.main(["invariants", str(path), "--n", "3", "--g", "2",
                     "--exact"])
    seconds = time.perf_counter() - start
    first = json.loads(capsys.readouterr().out)["invariants"]["generations"][0]
    ok = code == 0 and seconds < PERF_BUDGET_SECONDS \
        and first["spanning_trees"] == str(oracle.matrix_tree_count(base)) \
        and Fraction(first["kemeny"]) * 2 * len(base.edges) \
        == Fraction(first["kirchhoff"])
    report(9, ok, f"invariants --exact --g 2 on a 40-vertex base in "
                  f"{seconds * 1000:.0f} ms, Kemeny {first['kemeny']}")


def test_criterion_9_tree_count_at_390_vertices():
    base = random_connected_graph(random.Random(390), 390, 600)
    start = time.perf_counter()
    trees = oracle.matrix_tree_count(base)
    seconds = time.perf_counter() - start
    ok = seconds < PERF_BUDGET_SECONDS and trees > 0
    report(9, ok, f"exact tree count of a 390-vertex, {len(base.edges)}-"
                  f"edge base in {seconds * 1000:.0f} ms, "
                  f"{len(str(trees))} digits")


def test_criterion_10_high_n_verify(corpus, tmp_path, capsys):
    worst = 0.0
    bad = []
    for name in ("K3", "C5"):  # the triangle and a non-bipartite cycle
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in corpus[name].edges))
        for n in HIGH_N:
            code = cli.main(["verify", str(path), "--n", str(n), "--g", "1",
                             "--tolerance", str(SPECTRUM_TOL)])
            deviation = json.loads(capsys.readouterr().out)[
                "spectrum"]["max_abs_deviation"]
            worst = max(worst, deviation)
            if code != 0:
                bad.append((name, n))
    report(10, not bad,
           f"verify --g 1 at n in {HIGH_N}, worst |dλ| = {worst:.3e}"
           + (f", failing: {bad}" if bad else ""))
