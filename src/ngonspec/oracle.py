"""Brute-force ground truth for the closed-form pipeline.

Everything here works directly on an explicitly constructed graph: dense
normalized Laplacian, eigenvalues from LAPACK, exact spanning-tree counts
via fraction-free elimination, and multiset spectrum comparison. None of
it shares logic with the recurrence or root modules, which is the point
of having an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CapExceededError, Graph, GraphError

TREE_COUNT_CAP = 400


@dataclass(frozen=True)
class DenseSymMatrix:
    """Dense symmetric matrix: order plus a row-major numpy array."""

    order: int
    entries: np.ndarray


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_deviation: float
    matched: bool
    size_a: int
    size_b: int


def normalized_laplacian(graph: Graph) -> DenseSymMatrix:
    """I - D^{-1/2} A D^{-1/2}: unit diagonal, -1/sqrt(d_i d_j) on edges."""
    count = graph.vertex_count
    mat = np.zeros((count, count))
    np.fill_diagonal(mat, 1.0)
    scale = 1.0 / np.sqrt(np.asarray(graph.degrees, dtype=float))
    for u, v in graph.edges:
        mat[u, v] = mat[v, u] = -scale[u] * scale[v]
    return DenseSymMatrix(count, mat)


def laplacian_matvec(graph: Graph, vec) -> np.ndarray:
    """normalized_laplacian(graph).entries @ vec from the edge list alone."""
    vec = np.asarray(vec, dtype=float)
    u, v = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
    scale = 1.0 / np.sqrt(np.asarray(graph.degrees, dtype=float))
    weight = scale[u] * scale[v]
    count = graph.vertex_count
    return (vec - np.bincount(u, weight * vec[v], count)
            - np.bincount(v, weight * vec[u], count))


def eig_sym(matrix: DenseSymMatrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    m = np.asarray(matrix.entries, dtype=float)
    if m.shape != (matrix.order, matrix.order):
        raise ValueError(
            f"entries shape {m.shape} does not match order {matrix.order}")
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-14 * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(m)


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant by Bareiss elimination; every division is exact."""
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


def matrix_tree_count(graph: Graph, drop: int = 0,
                      cap: int = TREE_COUNT_CAP) -> int:
    """Exact spanning-tree count: one cofactor of the integer Laplacian.

    Any row/column index may be dropped; the result does not depend on the
    choice. Arbitrary-precision integers keep the count exact at any size
    the cap admits.
    """
    count = graph.vertex_count
    if count > cap:
        raise CapExceededError(count, cap)
    if not graph.connected:
        raise GraphError("spanning trees need a connected graph")
    if not 0 <= drop < count:
        raise ValueError(f"drop index {drop} out of range")
    lap = [[0] * count for _ in range(count)]
    for u, v in graph.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [[lap[i][j] for j in range(count) if j != drop]
             for i in range(count) if i != drop]
    return _bareiss_det(minor)


def compare_spectra(a, b, tol: float) -> ComparisonReport:
    """Elementwise comparison of two eigenvalue multisets after sorting."""
    va = np.sort(np.asarray(a, dtype=float))
    vb = np.sort(np.asarray(b, dtype=float))
    if va.size != vb.size:
        return ComparisonReport(float("inf"), False, int(va.size), int(vb.size))
    deviation = float(np.max(np.abs(va - vb), initial=0.0))
    return ComparisonReport(deviation, deviation <= tol, int(va.size),
                            int(vb.size))
