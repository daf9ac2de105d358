"""Spans around ngonspec's public module functions, from outside the package.

`Tracer.install()` swaps each wrapped function on its module for a
recording wrapper and `uninstall()` puts the originals back, so untraced
ops run the unmodified code. Calls inside the package go through module
attributes (`roots.solve_lambda_many`, `aseries.linear_combination`, ...)
or module globals, so the wrappers see nested calls too.

A span is (name, start, end, parent index, op id). Spans stay in memory
until `write()` at the end of the run. Per-layer figures are self times:
a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path
from time import perf_counter

OP_SPAN = "cli.op"

# (ngonspec module, function, span name); each span name has a self-time
# metric. Modules are imported when a Tracer is made, after the runner has
# put the checkout's src/ on the path.
WRAPPED = [
    ("graphs", "parse_edge_list", "graphs.parse"),
    ("graphs", "iterate_transform", "graphs.transform"),
    ("spectrum", "base_spectrum", "spectrum.base"),
    ("spectrum", "transform_spectrum", "spectrum.transfer"),
    ("spectrum", "lift_eigenvector", "spectrum.lift"),
    ("roots", "solve_lambda_many", "roots.batch"),
    ("roots", "solve_lambda_equation", "roots.scalar"),
    ("roots", "roots_of_family", "roots.family"),
    ("aseries", "linear_combination", "aseries.exact_poly"),
    ("oracle", "normalized_laplacian", "oracle.laplacian"),
    ("oracle", "eig_sym", "oracle.eig"),
    ("oracle", "matrix_tree_count", "oracle.bareiss"),
    ("invariants", "kirchhoff_closed", "invariants.closed"),
    ("invariants", "kemeny_closed", "invariants.closed"),
    ("invariants", "spanning_trees_closed", "invariants.closed"),
    ("invariants", "degree_product_closed", "invariants.closed"),
    ("invariants", "invariants_from_spectrum", "invariants.from_spectrum"),
    ("oracle", "compare_spectra", None),  # observed for max_abs_dev, no span
]

SELF_TIME_METRICS = {
    OP_SPAN: "cli.self_s",
    "graphs.parse": "graphs.parse_s",
    "graphs.transform": "graphs.transform_s",
    "spectrum.base": "spectrum.base_s",
    "spectrum.transfer": "spectrum.transfer_self_s",
    "spectrum.lift": "spectrum.lift_s",
    "roots.batch": "roots.batch_s",
    "roots.scalar": "roots.scalar_s",
    "roots.family": "roots.family_s",
    "aseries.exact_poly": "aseries.exact_poly_s",
    "oracle.laplacian": "oracle.laplacian_s",
    "oracle.eig": "oracle.eig_s",
    "oracle.bareiss": "oracle.bareiss_s",
    "invariants.closed": "invariants.closed_s",
    "invariants.from_spectrum": "invariants.from_spectrum_s",
}

# Counts summed over the traced ops, reported per op.
COUNTS = ("cli.stdout_bytes", "spectrum.entries", "roots.batch_rows",
          "roots.scalar_calls", "oracle.eig_order", "oracle.bareiss_order",
          "graphs.vertices_built")

UNITS = {
    **dict.fromkeys(SELF_TIME_METRICS.values(), "s/op"),
    "cli.stdout_bytes": "bytes/op",
    **dict.fromkeys(COUNTS[1:], "count/op"),
    "roots.fallback_ratio": "ratio",
    "oracle.max_abs_dev": "1",
    "invariants.tree_bits": "bits",
    "trace.overhead_p50_s": "s",
    "trace.overhead_tail_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.fallback_calls = 0
        self.tree_bits = 0
        self.max_abs_dev = 0.0
        self.op_keys: list[str] = []  # op id -> op key
        self._open: list[tuple[int, str]] = []  # (span index, name)
        self._op_id = -1
        modules = [importlib.import_module("ngonspec." + module)
                   for module, _, _ in WRAPPED]
        self._originals = [(module, attr, getattr(module, attr))
                           for module, (_, attr, _) in zip(modules, WRAPPED)]
        self._wrappers = [self._wrap(name, fn)
                          for (_, _, fn), (_, _, name)
                          in zip(self._originals, WRAPPED)]

    def install(self) -> None:
        for (module, attr, _), wrapper in zip(self._originals, self._wrappers):
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def run_op(self, key: str, call):
        """Run call() as one op under a root span; return its result."""
        self._op_id = len(self.op_keys)
        self.op_keys.append(key)
        return self._span(OP_SPAN, call)

    def _span(self, name: str, call):
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append((index, name))
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self._op_id)

    def _wrap(self, name: str | None, fn):
        before = getattr(self, "_before_" + fn.__name__, None)
        after = getattr(self, "_after_" + fn.__name__, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = self._span(name, lambda: fn(*args, **kwargs))
            if after is not None:
                after(result)
            return result
        return traced

    def _before_solve_lambda_many(self, n, lams) -> None:
        self.counts["roots.batch_rows"] += len(lams)

    def _before_solve_lambda_equation(self, *args) -> None:
        self.counts["roots.scalar_calls"] += 1
        if any(name == "roots.batch" for _, name in self._open):
            self.fallback_calls += 1

    def _before_eig_sym(self, matrix) -> None:
        self.counts["oracle.eig_order"] += matrix.order

    def _before_matrix_tree_count(self, graph, *args) -> None:
        self.counts["oracle.bareiss_order"] += graph.vertex_count

    def _after_matrix_tree_count(self, trees: int) -> None:
        self.tree_bits = max(self.tree_bits, trees.bit_length())

    _after_spanning_trees_closed = _after_matrix_tree_count

    def _after_transform_spectrum(self, result) -> None:
        self.counts["spectrum.entries"] += len(result[0].entries)

    def _after_iterate_transform(self, graph) -> None:
        self.counts["graphs.vertices_built"] += graph.vertex_count

    def _after_compare_spectra(self, report) -> None:
        self.max_abs_dev = max(self.max_abs_dev, report.max_abs_deviation)

    def layer_metrics(self) -> dict[str, float]:
        """Per-op self times and counts, plus the run-level ratios."""
        self_time = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            self_time[SELF_TIME_METRICS[name]] += end - start - covered
        ops = max(len(self.op_keys), 1)
        out = {k: v / ops for k, v in self_time.items()}
        out.update({k: v / ops for k, v in self.counts.items()})
        rows = self.counts["roots.batch_rows"]
        out["roots.fallback_ratio"] = self.fallback_calls / rows if rows else 0.0
        out["oracle.max_abs_dev"] = self.max_abs_dev
        out["invariants.tree_bits"] = self.tree_bits
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with path.open("w") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op_id,
                     "key": self.op_keys[op_id]}) + "\n")

