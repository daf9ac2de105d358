import csv
import io
import json
import math
import random
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest

from ngonspec import aseries, cli, graphs, invariants, spectrum


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


def laplacian_by_edge(graph):
    """Dense normalized Laplacian written one edge at a time.

    The reference for oracle.normalized_laplacian, which writes every
    edge's entry, the same single product, in one indexed assignment.
    """
    mat = np.identity(graph.vertex_count)
    scale = 1.0 / np.sqrt(np.asarray(graph.degrees, dtype=float))
    for u, v in graph.edges:
        mat[u, v] = mat[v, u] = -scale[u] * scale[v]
    return mat


def grown_by_make_graph(graph, n):
    """One growth step with every edge passed through make_graph.

    The reference for graphs.polygon_transform, which writes the same
    edges and takes its degrees and flags from the growth law instead of
    searching the grown graph for them.
    """
    base = graph.vertex_count
    new_edges = list(graph.edges)
    for e, (i, j) in enumerate(graph.edges):
        first = base + e * (n - 1)
        path = [i] + [first + k for k in range(n - 1)] + [j]
        new_edges.extend(zip(path, path[1:]))
    return graphs.make_graph(base + (n - 1) * len(graph.edges), new_edges)


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


def leading_minors(mat) -> list[int]:
    """Leading principal minors M_1 .. M_n by one fraction-free Bareiss
    pass without pivoting: after step k - 1 the k-th diagonal entry is M_k.

    The reference for the oracle kernel's skip rule. mat is a list of
    integer rows with nonzero leading minors and is overwritten.
    """
    size, prev = len(mat), 1
    for k in range(size):
        pivot, row_k = mat[k][k], mat[k]
        for row_i in mat[k + 1:]:
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
        prev = pivot
    return [mat[k][k] for k in range(size)]


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


def root_checksums(roots):
    """(sum of reciprocals, product) of a root array, left to right.

    The float side of the Vieta checks; the exact side is roots.vieta_sums.
    """
    values = roots.tolist()
    return sum(1.0 / r for r in values), math.prod(values, start=1.0)


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


# The CLI writer as it was before it formatted tables in blocks: one
# str.format per JSON row and csv.writer for CSV. cli._json_text and
# cli._write must print the same bytes.
_ENCODE = json.encoder.encode_basestring_ascii
_NESTED = (dict, list, tuple)


def _reference_json_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, int):
        return str(value)
    return _ENCODE(str(value))


def _reference_json_column(cells, kinds: set):
    if kinds == {float} and all(map(math.isfinite, cells)):
        return map(format, cells, repeat(".17g"))
    if kinds == {str}:
        return map(_ENCODE, cells)
    return map(_reference_json_scalar, cells)


def reference_json_text(value, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats; non-finite floats become null.

    A dict of scalars and each row of a Table take one line.
    """
    if not isinstance(value, _NESTED):
        return _reference_json_scalar(value)
    pad = "  " * (indent + 1)
    close = "\n" + "  " * indent
    if isinstance(value, cli.Table):
        row = (pad + "{{" + ", ".join(_ENCODE(key) + ": {}"
                                      for key in value.header) + "}}").format
        cells = [_reference_json_column(column, set(map(type, column)))
                 for column in value.columns]
        return "[\n" + ",\n".join(map(row, *cells)) + close + "]"
    if isinstance(value, dict):
        if not any(isinstance(v, _NESTED) for v in value.values()):
            return "{" + ", ".join(f"{_ENCODE(k)}: {_reference_json_scalar(v)}"
                                   for k, v in value.items()) + "}"
        return "{\n" + ",\n".join(
            f"{pad}{_ENCODE(k)}: {reference_json_text(v, indent + 1)}"
            for k, v in value.items()) + close + "}"
    if not value:
        return "[]"
    kinds = set(map(type, value))
    cells = ([reference_json_text(v, indent + 1) for v in value]
             if any(issubclass(kind, _NESTED) for kind in kinds)
             else _reference_json_column(value, kinds))
    return "[\n" + pad + (",\n" + pad).join(cells) + close + "]"


def _reference_csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_csv_column(cells):
    kinds = set(map(type, cells))
    if kinds == {float}:
        return map(format, cells, repeat(".17g"))
    if kinds <= {str, int}:
        return cells
    return map(_reference_csv_cell, cells)


def reference_csv_text(table) -> str:
    """The table as csv.writer prints it, header first."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(zip(*map(_reference_csv_column, table.columns)))
    return out.getvalue()
