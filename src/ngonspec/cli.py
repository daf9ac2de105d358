"""Command-line front end.

Subcommands: transform (write the grown edge list), spectrum (eigenvalues
of the grown graph from the base spectrum alone), invariants (closed-form
chain across generations), verify (cross-check against the brute-force
oracle), lift (lift a base eigenvector one growth step).

Exit codes: 0 success, 1 parse or validation failure, 2 size cap
exceeded, 3 verification mismatch. Output is deterministic: fixed key
order and 17-significant-digit floats, so identical runs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import graphs, invariants, oracle, roots, spectrum


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str
    n: int
    g: int
    tolerance: float = 1e-8
    output_format: str = "json"
    explicit_cap: int = graphs.DEFAULT_EXPLICIT_CAP
    exact_mode: bool = False
    eigenpair_path: str | None = None


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(value, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats; non-finite floats become null."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return _fmt_float(value) if math.isfinite(value) else "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = list(value.items())
        scalars = all(not isinstance(v, (dict, list, tuple)) for _, v in items)
        if scalars:
            inner = ", ".join(f"{json.dumps(k)}: {_json_text(v)}"
                              for k, v in items)
            return "{" + inner + "}"
        pad = "  " * (indent + 1)
        inner = ",\n".join(f"{pad}{json.dumps(k)}: {_json_text(v, indent + 1)}"
                           for k, v in items)
        return "{\n" + inner + "\n" + "  " * indent + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        pad = "  " * (indent + 1)
        inner = ",\n".join(f"{pad}{_json_text(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _print_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _meta(n: int, g: int, ctx: spectrum.SpectrumContext) -> dict:
    return {"n": n, "g": g, "N": str(ctx.vertices), "E": str(ctx.edges),
            "bipartite": ctx.bipartite}


def _inv_value(x):
    """Exact values render as strings, floats stay numbers."""
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def _cmd_transform(cfg: RunConfig, graph: graphs.Graph) -> int:
    grown = graphs.iterate_transform(graph, cfg.n, cfg.g, cfg.explicit_cap)
    for u, v in grown.edges:
        print(f"{u} {v}")
    return 0


def _cmd_spectrum(cfg: RunConfig, graph: graphs.Graph) -> int:
    spec, ctx = spectrum.iterate_spectrum(*spectrum.base_spectrum(graph),
                                          cfg.n, cfg.g)
    values = spec.values.tolist()
    mults = map(str, spec.multiplicities.tolist())
    labels = spec.source_labels()
    if cfg.output_format == "csv":
        _print_csv(("value", "multiplicity", "source"),
                   zip([format(v, ".17g") for v in values], mults, labels))
        return 0
    values = [format(v, ".17g") if math.isfinite(v) else "null"
              for v in values]
    row = '    {{"value": {}, "multiplicity": "{}", "source": "{}"}}'.format
    rows = ",\n".join(map(row, values, mults, labels))
    print('{\n  "meta": ' + _json_text(_meta(cfg.n, cfg.g, ctx))
          + ',\n  "spectrum": [\n' + rows + "\n  ]\n}")
    return 0


def _cmd_invariants(cfg: RunConfig, graph: graphs.Graph) -> int:
    n0, e0 = graph.vertex_count, len(graph.edges)
    base_spec, base_ctx = spectrum.base_spectrum(graph)
    product0 = invariants.degree_product(graph)
    if cfg.exact_mode:
        kf0, k0, nst0 = invariants.exact_invariants(graph)
    else:
        nst0 = oracle.matrix_tree_count(graph)
        base = invariants.invariants_from_spectrum(base_spec, base_ctx,
                                                   product0)
        kf0, k0 = base.kirchhoff_multiplicative, base.kemeny
    rows = []
    spec_t, ctx_t = base_spec, base_ctx
    spectrum_side = True
    final = None
    for t in range(cfg.g + 1):
        if t == 0:
            kf_t, k_t, nst_t = kf0, k0, nst0
            method = invariants.METHOD_SPECTRUM
        else:
            kf_t = invariants.kirchhoff_closed(kf0, n0, e0, cfg.n, t)
            k_t = invariants.kemeny_closed(k0, n0, e0, cfg.n, t)
            nst_t = invariants.spanning_trees_closed(nst0, n0, e0, cfg.n, t)
            method = invariants.METHOD_CLOSED
        rows.append({"generation": t, "method": method,
                     "kirchhoff": _inv_value(kf_t), "kemeny": _inv_value(k_t),
                     "spanning_trees": str(nst_t)})
        final = (kf_t, k_t, nst_t)
        if t == 0:
            continue
        counts = graphs.predict_counts(n0, e0, cfg.n, t)
        if spectrum_side and counts.vertices <= cfg.explicit_cap:
            spec_t, ctx_t = spectrum.transform_spectrum(spec_t, ctx_t, cfg.n)
            report = invariants.invariants_from_spectrum(
                spec_t, ctx_t,
                invariants.degree_product_closed(product0, n0, e0, cfg.n, t),
                generation=t)
            rows.append({
                "generation": t, "method": report.method,
                "kirchhoff": report.kirchhoff_multiplicative,
                "kemeny": report.kemeny,
                "spanning_trees":
                    None if report.spanning_trees is None
                    else str(report.spanning_trees),
            })
        else:
            spectrum_side = False
    if cfg.output_format == "csv":
        csv_rows = [(r["generation"], r["method"],
                     r["kirchhoff"] if isinstance(r["kirchhoff"], str)
                     else _fmt_float(r["kirchhoff"]),
                     r["kemeny"] if isinstance(r["kemeny"], str)
                     else _fmt_float(r["kemeny"]),
                     "" if r["spanning_trees"] is None
                     else r["spanning_trees"]) for r in rows]
        _print_csv(("generation", "method", "kirchhoff", "kemeny",
                    "spanning_trees"), csv_rows)
        return 0
    counts = graphs.predict_counts(n0, e0, cfg.n, cfg.g)
    ctx_g = spectrum.SpectrumContext(
        counts.vertices, counts.edges,
        graph.bipartite and (cfg.n % 2 == 1 or cfg.g == 0))
    doc = {
        "meta": _meta(cfg.n, cfg.g, ctx_g),
        "invariants": {
            "kirchhoff": _inv_value(final[0]),
            "kemeny": _inv_value(final[1]),
            "spanning_trees": str(final[2]),
            "generations": rows,
        },
    }
    print(_json_text(doc))
    return 0


def _cmd_verify(cfg: RunConfig, graph: graphs.Graph) -> int:
    explicit = graphs.iterate_transform(graph, cfg.n, cfg.g, cfg.explicit_cap)
    spec, ctx = spectrum.iterate_spectrum(*spectrum.base_spectrum(graph),
                                          cfg.n, cfg.g)
    numeric = oracle.eig_sym(oracle.normalized_laplacian(explicit))
    report = oracle.compare_spectra(spec.expanded(), numeric, cfg.tolerance)
    trees = None
    if explicit.vertex_count <= oracle.TREE_COUNT_CAP:
        direct = oracle.matrix_tree_count(explicit)
        base = oracle.matrix_tree_count(graph)
        if cfg.g >= 1:
            closed = invariants.spanning_trees_closed(
                base, graph.vertex_count, len(graph.edges), cfg.n, cfg.g)
        else:
            closed = base
        trees = {"closed_form": str(closed), "matrix_tree": str(direct),
                 "equal": closed == direct}
    ok = report.matched and (trees is None or trees["equal"])
    if cfg.output_format == "csv":
        rows = [("matched", str(report.matched).lower()),
                ("max_abs_deviation", _fmt_float(report.max_abs_deviation)),
                ("size_theory", str(report.size_a)),
                ("size_oracle", str(report.size_b))]
        if trees is not None:
            rows += [("spanning_trees_closed_form", trees["closed_form"]),
                     ("spanning_trees_matrix_tree", trees["matrix_tree"]),
                     ("spanning_trees_equal", str(trees["equal"]).lower())]
        _print_csv(("key", "value"), rows)
    else:
        doc = {
            "meta": _meta(cfg.n, cfg.g, ctx),
            "spectrum": {
                "matched": report.matched,
                "max_abs_deviation": report.max_abs_deviation,
                "size_theory": report.size_a,
                "size_oracle": report.size_b,
            },
            "spanning_trees": trees,
        }
        print(_json_text(doc))
    return 0 if ok else 3


def _cmd_lift(cfg: RunConfig, graph: graphs.Graph) -> int:
    with open(cfg.eigenpair_path) as handle:
        pair = json.load(handle, parse_int=float)
    if not (isinstance(pair, dict) and isinstance(pair.get("vector"), list)
            and all(isinstance(x, float) and math.isfinite(x)
                    for x in [pair.get("value"), *pair["vector"]])):
        raise ValueError('eigenpair file must hold finite numbers as '
                         '{"value": number, "vector": [number, ...]}')
    lam, vec = pair["value"], pair["vector"]
    grown = graphs.iterate_transform(graph, cfg.n, 1, cfg.explicit_cap)
    lifts = []
    worst = 0.0
    for mu in roots.solve_lambda_many(cfg.n, [lam])[0].tolist():
        lifted = spectrum.lift_eigenvector(graph, cfg.n, lam, vec, mu,
                                           tol=cfg.tolerance)
        residual = float(np.linalg.norm(
            oracle.laplacian_matvec(grown, lifted) - mu * lifted)
            / np.linalg.norm(lifted))
        worst = max(worst, residual)
        lifts.append({"mu": mu, "residual": residual,
                      "vector": [float(x) for x in lifted]})
    if cfg.output_format == "csv":
        rows = []
        for item in lifts:
            for k, x in enumerate(item["vector"]):
                rows.append((_fmt_float(item["mu"]),
                             _fmt_float(item["residual"]), str(k),
                             _fmt_float(x)))
        _print_csv(("mu", "residual", "index", "component"), rows)
    else:
        ctx = spectrum.SpectrumContext(grown.vertex_count, len(grown.edges),
                                       grown.bipartite)
        doc = {"meta": _meta(cfg.n, 1, ctx), "eigenvalue": lam,
               "lifts": lifts}
        print(_json_text(doc))
    return 0 if worst <= cfg.tolerance else 3


_COMMANDS = {
    "transform": _cmd_transform,
    "spectrum": _cmd_spectrum,
    "invariants": _cmd_invariants,
    "verify": _cmd_verify,
    "lift": _cmd_lift,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def parse_config(argv=None) -> RunConfig:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="edge-list file: 'u v' per line, '#' comments")
    common.add_argument("--n", type=int, required=True,
                        help="polygon parameter, at least 2")
    common.add_argument("--g", type=int, default=1,
                        help="number of growth steps (default 1)")
    common.add_argument("--tolerance", type=float, default=1e-8,
                        help="comparison tolerance (default 1e-8)")
    common.add_argument("--output-format", choices=("json", "csv"),
                        default="json")
    common.add_argument("--explicit-cap", type=int,
                        default=graphs.DEFAULT_EXPLICIT_CAP,
                        help="largest vertex count built explicitly")
    parser = _Parser(prog="ngonspec",
                     description="spectra and invariants of edge-to-polygon "
                                 "graph growth")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("transform", parents=[common],
                   help="write the grown graph's edge list")
    sub.add_parser("spectrum", parents=[common],
                   help="spectrum of the grown graph, no explicit build")
    inv = sub.add_parser("invariants", parents=[common],
                         help="invariant chain for generations 0..g")
    inv.add_argument("--exact", action="store_true",
                     help="exact rational base values")
    sub.add_parser("verify", parents=[common],
                   help="compare the spectrum pipeline against the oracle")
    lift = sub.add_parser("lift", parents=[common],
                          help="lift a base eigenvector one growth step")
    lift.add_argument("--eigenpair", required=True,
                      help='JSON file {"value": eigenvalue, "vector": [...]}')
    ns = parser.parse_args(argv)
    if ns.n < 2:
        parser.error("--n must be at least 2")
    if ns.g < 0:
        parser.error("--g must be nonnegative")
    if ns.tolerance <= 0:
        parser.error("--tolerance must be positive")
    if ns.explicit_cap < 2:
        parser.error("--explicit-cap must be at least 2")
    return RunConfig(command=ns.command, input_path=ns.input, n=ns.n, g=ns.g,
                     tolerance=ns.tolerance, output_format=ns.output_format,
                     explicit_cap=ns.explicit_cap,
                     exact_mode=getattr(ns, "exact", False),
                     eigenpair_path=getattr(ns, "eigenpair", None))


def run(config: RunConfig) -> int:
    # counts grow without bound; lift the int-to-str digit guard
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        text = Path(config.input_path).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        graph = graphs.parse_edge_list(text)
        return _COMMANDS[config.command](config, graph)
    except graphs.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (graphs.GraphError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(parse_config(argv))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
