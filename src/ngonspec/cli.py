"""Command-line front end.

Subcommands: transform (write the grown edge list), spectrum (eigenvalues
of the grown graph from the base spectrum alone), invariants (closed-form
chain across generations), verify (cross-check against the brute-force
oracle), lift (lift a base eigenvector one growth step).

Every subcommand but transform returns (exit code, JSON document, row
table), and one writer prints the document as JSON or the table as CSV.

Exit codes: 0 success, 1 parse or validation failure, 2 size cap
exceeded, 3 verification mismatch. Output is deterministic: fixed key
order and 17-significant-digit floats, so identical runs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import graphs, invariants, oracle, roots, spectrum

_ENCODE = json.encoder.encode_basestring_ascii  # json.dumps of a str
_FROM_SPECTRUM, _CLOSED_FORM = "from-spectrum", "closed-form"  # row methods


class Table(NamedTuple):
    """Rows as named columns of equal length."""

    header: tuple
    columns: list


_NESTED = (dict, list, tuple)  # a Table is a tuple
_BLOCK = 2048  # rows formatted by one `template % cells`
_CSV_QUOTED = ',"\n'  # csv.writer quotes a field holding one ("\n" ends)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return "%.17g" % value if math.isfinite(value) else "null"
    if isinstance(value, int):
        return str(value)
    return _ENCODE(str(value))


def _csv_cell(value) -> str:
    """One CSV field, quoted as csv.writer quotes it."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    text = "%.17g" % value if isinstance(value, float) else str(value)
    if any(char in text for char in _CSV_QUOTED):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(cells, kinds: set, json: bool) -> tuple[str, list]:
    """(% conversion, values) of a column whose cells have the types in
    kinds: uniform float, int and plain str columns convert their cells,
    any other column its cells' text."""
    if kinds == {float} and (not json or all(map(math.isfinite, cells))):
        return "%.17g", cells
    if kinds == {int}:
        return "%d", cells
    if kinds == {str}:
        text = "".join(cells)
        if json and _ENCODE(text) == f'"{text}"':
            return '"%s"', cells
        if not json and not any(char in text for char in _CSV_QUOTED):
            return "%s", cells
    return "%s", list(map(_json_scalar if json else _csv_cell, cells))


def _blocks(row: str, sep: str, columns):
    """The row template filled from the columns, rows joined by sep, as
    one string per block of _BLOCK rows."""
    for start in range(0, len(columns[0]), _BLOCK):
        block = [column[start:start + _BLOCK] for column in columns]
        yield (sep if start else "") + sep.join([row] * len(block[0])) \
            % tuple(chain.from_iterable(zip(*block)))


def _table_parts(table: Table, json: bool, pad: str = ""):
    """A table's rows in blocks: JSON objects joined by ",\n", or CSV
    lines without the header."""
    formats, columns = zip(*(_column(column, set(map(type, column)), json)
                             for column in table.columns))
    if json:
        return _blocks(pad + "{" + ", ".join(
            _ENCODE(key).replace("%", "%%") + ": " + conversion
            for key, conversion in zip(table.header, formats)) + "}",
            ",\n", columns)
    if formats == ("%s",):  # csv.writer quotes a lone empty field
        columns = ([text or '""' for text in columns[0]],)
    return _blocks(",".join(formats) + "\n", "", columns)


def _json_parts(value, indent: int = 0):
    """Deterministic JSON with .17g floats, in parts; non-finite floats
    become null. A dict of scalars and each row of a Table take one line."""
    if not isinstance(value, _NESTED):
        yield _json_scalar(value)
        return
    pad = "  " * (indent + 1)
    close = "\n" + "  " * indent
    if isinstance(value, dict):
        if not any(isinstance(v, _NESTED) for v in value.values()):
            yield "{" + ", ".join(f"{_ENCODE(k)}: {_json_scalar(v)}"
                                  for k, v in value.items()) + "}"
            return
        yield "{\n"
        for i, (k, v) in enumerate(value.items()):
            yield (",\n" if i else "") + pad + _ENCODE(k) + ": "
            yield from _json_parts(v, indent + 1)
        yield close + "}"
        return
    if not value:
        yield "[]"
        return
    kinds = set(map(type, value))
    yield "[\n"
    if isinstance(value, Table):
        yield from _table_parts(value, True, pad)
    elif any(issubclass(kind, _NESTED) for kind in kinds):
        for i, v in enumerate(value):
            yield (",\n" if i else "") + pad
            yield from _json_parts(v, indent + 1)
    else:
        conversion, cells = _column(value, kinds, True)
        yield from _blocks(pad + conversion, ",\n", [cells])
    yield close + "]"


def _json_text(value) -> str:
    return "".join(_json_parts(value))


def _write(output_format: str, document, table: Table | None) -> None:
    """Print a result in parts: the document as JSON or the table as CSV."""
    if output_format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerow(table.header)
        parts = _table_parts(table, False)
    else:
        parts = chain(_json_parts(document), ("\n",))
    for part in parts:
        print(part, end="")


def _meta(n: int, g: int, counts: graphs.GrowthCounts) -> dict:
    return {"n": n, "g": g, "N": str(counts.vertices),
            "E": str(counts.edges), "bipartite": counts.bipartite}


def _cmd_transform(ns, graph: graphs.Graph):
    grown = graphs.iterate_transform(graph, ns.n, ns.g, ns.explicit_cap)
    print("".join(f"{u} {v}\n" for u, v in grown.edges), end="")
    return 0, None, None


def _cmd_spectrum(ns, graph: graphs.Graph):
    spec, counts = spectrum.iterate_spectrum(*spectrum.base_spectrum(graph),
                                             ns.n, ns.g)
    table = Table(("value", "multiplicity", "source"), [
        spec.values.tolist(), list(map(str, spec.multiplicities.tolist())),
        spec.source_labels()])
    return 0, {"meta": _meta(ns.n, ns.g, counts), "spectrum": table}, table


def _cmd_invariants(ns, graph: graphs.Graph):
    n0, e0 = graph.vertex_count, len(graph.edges)
    base_spec, base_counts = spectrum.base_spectrum(graph)
    product0 = invariants.degree_product(graph)
    if ns.exact:
        kf0, k0, nst0 = invariants.exact_invariants(graph)
    else:
        nst0 = oracle.matrix_tree_count(graph)
        base = invariants.invariants_from_spectrum(base_spec, base_counts,
                                                   product0)
        kf0, k0 = base.kirchhoff_multiplicative, base.kemeny
    kf_t, k_t, nst_t = kf0, k0, nst0
    rows = [(0, _FROM_SPECTRUM, kf0, k0, str(nst0))]
    spec_t, counts_t = base_spec, base_counts
    for t in range(1, ns.g + 1):
        kf_t = invariants.kirchhoff_closed(kf0, n0, e0, ns.n, t)
        k_t = invariants.kemeny_closed(k0, n0, e0, ns.n, t)
        nst_t = invariants.spanning_trees_closed(nst0, n0, e0, ns.n, t)
        rows.append((t, _CLOSED_FORM, kf_t, k_t, str(nst_t)))
        # vertex counts grow with t, so once past the cap they stay past it
        if base_counts.grown(ns.n, t).vertices > ns.explicit_cap:
            continue
        spec_t, counts_t = spectrum.transform_spectrum(spec_t, counts_t, ns.n)
        report = invariants.invariants_from_spectrum(
            spec_t, counts_t,
            invariants.degree_product_closed(product0, base_counts, ns.n, t))
        rows.append((t, _FROM_SPECTRUM, report.kirchhoff_multiplicative,
                     report.kemeny, None if report.spanning_trees is None
                     else str(report.spanning_trees)))
    table = Table(("generation", "method", "kirchhoff", "kemeny",
                   "spanning_trees"), list(zip(*rows)))
    doc = {
        "meta": _meta(ns.n, ns.g, base_counts.grown(ns.n, ns.g)),
        "invariants": {"kirchhoff": kf_t, "kemeny": k_t,
                       "spanning_trees": str(nst_t), "generations": table},
    }
    return 0, doc, table


def _cmd_verify(ns, graph: graphs.Graph):
    explicit = graphs.iterate_transform(graph, ns.n, ns.g, ns.explicit_cap)
    spec, counts = spectrum.iterate_spectrum(*spectrum.base_spectrum(graph),
                                             ns.n, ns.g)
    numeric = oracle.eig_sym(oracle.normalized_laplacian(explicit))
    report = oracle.compare_spectra(spec.expanded(), numeric, ns.tolerance)
    checks = {"matched": report.matched,
              "max_abs_deviation": report.max_abs_deviation,
              "size_theory": report.size_a, "size_oracle": report.size_b}
    trees = None
    if explicit.vertex_count <= oracle.TREE_COUNT_CAP:
        direct = oracle.matrix_tree_count(explicit)
        closed = direct if ns.g == 0 else invariants.spanning_trees_closed(
            oracle.matrix_tree_count(graph), graph.vertex_count,
            len(graph.edges), ns.n, ns.g)
        trees = {"closed_form": str(closed), "matrix_tree": str(direct),
                 "equal": closed == direct}
    ok = report.matched and (trees is None or trees["equal"])
    doc = {"meta": _meta(ns.n, ns.g, counts), "spectrum": checks,
           "spanning_trees": trees}
    rows = [*checks.items(), *(("spanning_trees_" + key, value)
                               for key, value in (trees or {}).items())]
    table = Table(("key", "value"), list(zip(*rows)))
    return 0 if ok else 3, doc, table


def _cmd_lift(ns, graph: graphs.Graph):
    with open(ns.eigenpair) as handle:
        pair = json.load(handle, parse_int=float)
    if not (isinstance(pair, dict) and isinstance(pair.get("vector"), list)
            and all(isinstance(x, float) and math.isfinite(x)
                    for x in [pair.get("value"), *pair["vector"]])):
        raise ValueError('eigenpair file must hold finite numbers as '
                         '{"value": number, "vector": [number, ...]}')
    lam, vec = pair["value"], pair["vector"]
    grown = graphs.iterate_transform(graph, ns.n, 1, ns.explicit_cap)
    mus = roots.solve_lambda_many(ns.n, [lam])[0]
    lifted = spectrum.lift_eigenvector(graph, ns.n, lam, vec, mus,
                                       tol=ns.tolerance)  # one lift per row
    applied = oracle.laplacian_matvec(grown, lifted)
    mus, vectors = mus.tolist(), lifted.tolist()
    residuals = [float(np.linalg.norm(image - mu * row) / np.linalg.norm(row))
                 for image, mu, row in zip(applied, mus, lifted)]
    size = grown.vertex_count
    doc = {"meta": _meta(ns.n, 1, grown.counts), "eigenvalue": lam, "lifts": [
        {"mu": mu, "residual": residual, "vector": vector}
        for mu, residual, vector in zip(mus, residuals, vectors)]}
    table = None
    if ns.output_format == "csv":  # JSON prints the document alone
        table = Table(("mu", "residual", "index", "component"), [
            [mu for mu in mus for _ in range(size)],
            [residual for residual in residuals for _ in range(size)],
            list(range(size)) * len(mus),
            list(chain.from_iterable(vectors))])
    worst = max(residuals, default=0.0)
    return 0 if worst <= ns.tolerance else 3, doc, table


# Each subcommand: its function, its help line and the flags it reads
# beyond input, --n and --g.
_COMMANDS = {
    "transform": (_cmd_transform, "write the grown graph's edge list",
                  ("--explicit-cap",)),
    "spectrum": (_cmd_spectrum,
                 "spectrum of the grown graph, no explicit build",
                 ("--output-format",)),
    "invariants": (_cmd_invariants, "invariant chain for generations 0..g",
                   ("--output-format", "--explicit-cap", "--exact")),
    "verify": (_cmd_verify,
               "compare the spectrum pipeline against the oracle",
               ("--tolerance", "--output-format", "--explicit-cap")),
    "lift": (_cmd_lift, "lift a base eigenvector one growth step",
             ("--tolerance", "--output-format", "--explicit-cap",
              "--eigenpair")),
}
_FLAGS = {
    "--tolerance": dict(type=float, default=1e-8,
                        help="comparison tolerance (default 1e-8)"),
    "--output-format": dict(choices=("json", "csv"), default="json"),
    "--explicit-cap": dict(type=int, default=graphs.DEFAULT_EXPLICIT_CAP,
                           help="largest vertex count built explicitly"),
    "--exact": dict(action="store_true", help="exact rational base values"),
    "--eigenpair": dict(
        required=True,
        help='JSON file {"value": eigenvalue, "vector": [...]}'),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache
def _parser() -> _Parser:
    """The argparse tree, built once per process; parsing leaves it as is."""
    parser = _Parser(prog="ngonspec",
                     description="spectra and invariants of edge-to-polygon "
                                 "graph growth")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="edge-list file: 'u v' per line, "
                                      "'#' comments")
    common.add_argument("--n", type=int, required=True,
                        help="polygon parameter, at least 2")
    common.add_argument("--g", type=int, default=1,
                        help="number of growth steps (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = _parser()
    ns = parser.parse_args(argv)
    if ns.n < 2:
        parser.error("--n must be at least 2")
    if ns.g < 0:
        parser.error("--g must be nonnegative")
    if ns.command == "lift" and ns.g != 1:
        parser.error("lift grows one step, so --g must be 1")
    if "tolerance" in ns and not 0 < ns.tolerance < math.inf:
        parser.error("--tolerance must be a positive finite number")
    if "explicit_cap" in ns and ns.explicit_cap < 2:
        parser.error("--explicit-cap must be at least 2")
    # counts grow without bound; lift the int-to-str digit guard
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        graph = graphs.parse_edge_list(Path(ns.input).read_text())
        code, document, table = _COMMANDS[ns.command][0](ns, graph)
    except (graphs.CapExceededError, graphs.GraphError, ValueError, KeyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, graphs.CapExceededError) else 1
    if document is not None:
        _write(ns.output_format, document, table)
    return code


def console_main() -> None:
    sys.exit(main())
