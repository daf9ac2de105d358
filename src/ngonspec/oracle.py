"""Brute-force ground truth for the closed-form pipeline.

Everything here works directly on an explicitly constructed graph: dense
normalized Laplacian, eigenvalues from LAPACK, exact spanning-tree counts
and Kirchhoff indices, and multiset spectrum comparison. None of it shares
logic with the recurrence or root modules, which is the point of having an
oracle.

Exact values come from one kernel: [L0 | B], the reduced integer Laplacian
beside a right-hand side, is eliminated in int64 modulo primes below 2**26
for det L0 and adj(L0) @ B mod p, and the Chinese remainder theorem joins
residues until the modulus exceeds twice a bound. Tree counts take a
zero-width B and Hadamard's bound, the kept-degree product; the Kirchhoff
index takes B = I, skips primes dividing the tree count and multiplies the
bound by 2 E**2 N. Entries stay below order * p**2 < 2**63, so orders of
2048 and more are refused.

L0 comes in ascending kept-degree order, a minimum-degree-style order
(George & Liu, Computer Solution of Large Sparse Positive Definite
Systems, 1981): a grown graph's newest path vertices have degree 2 and
every older degree has doubled, so elimination is a series reduction with
little fill. One call eliminates a batch of primes in a (P, n, n + m)
array, and each step touches only the rows and columns that the pivot
column and row reach; once the pivot column is dense, the step updates
the trailing block by slices. MODULAR_BATCH_BYTES caps a batch's array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import CapExceededError, Graph, GraphError

TREE_COUNT_CAP = 400
PRIME_LIMIT = 2 ** 26       # moduli stay below this, so p**2 < 2**52
MAX_MODULAR_ORDER = 2048    # order * p**2 must stay below 2**63
MODULAR_BATCH_BYTES = 2 ** 24  # cap on one batch's (P, n, n + m) int64 array
_PRIMES: list[int] = []     # filled on first use, not at import
_ODD_PRIMES_TO_47 = 307444891294245705  # 3 * 5 * 7 * ... * 47


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
    """normalized_laplacian(graph).entries @ vec from the edge list alone.

    vec is one vector or a (k, N) block with one vector per row; each row
    of the result has the same bits as the call on that row alone.
    """
    vec = np.asarray(vec, dtype=float)
    u, v = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
    scale = 1.0 / np.sqrt(np.asarray(graph.degrees, dtype=float))
    weight = scale[u] * scale[v]
    count = graph.vertex_count
    rows = np.atleast_2d(vec)
    slots = count * np.arange(len(rows))[:, None]  # row r sums at r*N + vertex

    def gather(into, source):  # bincount adds in edge order, row by row
        return np.bincount((into + slots).ravel(),
                           (weight * rows[:, source]).ravel(),
                           len(rows) * count).reshape(vec.shape)
    return vec - gather(u, v) - gather(v, u)


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


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for odd m < 3.2e9."""
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime(index: int) -> int:
    """The index-th prime below PRIME_LIMIT, counting down; cached."""
    candidate = _PRIMES[-1] if _PRIMES else PRIME_LIMIT + 1
    while len(_PRIMES) <= index:
        candidate -= 2
        if math.gcd(candidate, _ODD_PRIMES_TO_47) == 1 \
                and _is_prime(candidate):
            _PRIMES.append(candidate)
    return _PRIMES[index]


def _eliminate_mod(mat: np.ndarray, rhs: np.ndarray, primes):
    """[(det mat mod p, adj(mat) @ rhs mod p or None when det is 0) per p].

    One (P, n, n + m) int64 array holds [mat | rhs] for every prime of
    the batch. Step k reduces only the pivot column and row mod p, and
    updates only the rows where the column is nonzero for some prime and
    the columns where the row is: a few entries per step on a sparse
    matrix in a good order, whole slices once the pivot column is dense.
    A zero pivot swaps rows for its own prime only; a column of zeros
    makes that prime's det 0 and leaves the others going. Each update is
    below p**2, so entries stay under order * p**2 < 2**63. Back
    substitution gives x = mat^{-1} @ rhs over each pivot row's nonzero
    columns, and adj(mat) @ rhs = det * x; a zero-width rhs costs the det
    only.
    """
    size, width = rhs.shape
    if size >= MAX_MODULAR_ORDER:
        raise ValueError(f"modular determinant needs order below "
                         f"{MAX_MODULAR_ORDER}, got {size}")
    mod = np.array(primes, dtype=np.int64)[:, None]
    a = np.concatenate((mat, rhs), axis=1)[None] % mod[:, :, None]
    det = np.ones(len(primes), dtype=np.int64)
    inverses, uses = np.ones((len(primes), size), dtype=np.int64), []
    for k in range(size):
        col = a[:, k:size, k] % mod
        for i in np.flatnonzero(col[:, 0] == 0):
            nonzero = np.flatnonzero(col[i])
            if not nonzero.size:  # det is 0 mod this prime; unit pivot
                det[i], col[i, 0] = 0, 1
                continue
            r = nonzero[0]
            a[i, [k, k + r], k:] = a[i, [k + r, k], k:]
            col[i, [0, r]] = col[i, [r, 0]]
            det[i] = -det[i]
        det = det * col[:, 0] % mod[:, 0]
        inverses[:, k] = [pow(v, -1, p) for v, p in
                          zip(col[:, 0].tolist(), primes)]
        row = a[:, k, k + 1:] % mod
        cols = row.any(axis=0).nonzero()[0]
        uses.append(cols[:np.searchsorted(cols, size - k - 1)] + k + 1)
        rows = col[:, 1:].any(axis=0).nonzero()[0]
        if rows.size and cols.size:
            if 2 * rows.size > size - k:  # a dense front: slices beat gathers
                rows, cols = np.s_[rows[0]:], np.s_[cols[0]:]
                at = (np.s_[:], rows, cols)
            else:
                at = (np.s_[:], rows[:, None], cols)
            factors = col[:, 1:][:, rows] * inverses[:, k, None] % mod
            a[:, k + 1:size, k + 1:][at] -= \
                factors[:, :, None] * row[:, None, cols]
    x = a[:, :, size:]
    for k in range(size - 1, -1, -1) if width else ():
        upper = a[:, k, uses[k]] % mod
        x[:, k] = (x[:, k] - np.einsum("pc,pcm->pm", upper, x[:, uses[k]])
                   ) % mod * inverses[:, k, None] % mod
    adj = x * det[:, None, None] % mod[:, :, None]
    return [(d, adj_rhs if d else None)
            for d, adj_rhs in zip(det.tolist(), adj)]


def _crt(digits_of, bound: int, count: int = 1, batch: int = 1) -> list[int]:
    """count integers in [-bound, bound] from their residues mod primes.

    digits_of(primes) gives, per prime, its count residues or None to skip
    it. Each call gets at most batch primes, no more than would lift the
    product past 2 * bound if none were skipped; calls go on until the
    product does, and Garner's mixed-radix step joins the digits.
    """
    values, modulus, index = [0] * count, 1, 0
    while modulus <= 2 * bound:
        primes, reach = [], modulus
        while reach <= 2 * bound and len(primes) < batch:
            primes.append(_prime(index + len(primes)))
            reach *= primes[-1]
        index += len(primes)
        for p, digits in zip(primes, digits_of(primes)):
            if digits is None:
                continue
            inverse = pow(modulus, -1, p)
            values = [v + modulus * ((r - v) * inverse % p)
                      for v, r in zip(values, digits)]
            modulus *= p
    return [v - modulus if 2 * v > modulus else v for v in values]


def _batch(order: int, width: int) -> int:
    """Primes per batch that keep [mat | rhs] within MODULAR_BATCH_BYTES."""
    return max(1, MODULAR_BATCH_BYTES // max(1, 8 * order * (order + width)))


def _modular_det(mat: np.ndarray, bound: int) -> int:
    """Exact det of an integer matrix with |det| <= bound, via CRT."""
    mat = np.asarray(mat, dtype=np.int64)

    def digits_of(primes):
        return [(det,) for det, _ in _eliminate_mod(mat, mat[:, :0], primes)]

    (det,) = _crt(digits_of, bound, 1, _batch(len(mat), 0))
    return det


def _reduced_laplacian(graph: Graph, drop: int):
    """The integer Laplacian without row and column drop; kept degrees.

    Both come in ascending kept-degree order (a stable sort), a symmetric
    permutation that changes neither det nor adj's quadratic forms. On a
    grown graph it puts the newest degree-2 path vertices first, so
    elimination runs as a series reduction with little fill.
    """
    count = graph.vertex_count
    if count > TREE_COUNT_CAP:
        raise CapExceededError(count, TREE_COUNT_CAP,
                               "exact spanning-tree count")
    if not graph.connected:
        raise GraphError("spanning trees need a connected graph")
    if not 0 <= drop < count:
        raise ValueError(f"drop index {drop} out of range")
    lap = np.zeros((count, count), dtype=np.int64)
    u, v = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
    lap[u, v] = lap[v, u] = -1
    np.fill_diagonal(lap, graph.degrees)
    kept = np.delete(np.arange(count), drop)
    kept = kept[np.argsort(lap[kept, kept], kind="stable")]
    return lap[np.ix_(kept, kept)], lap[kept, kept].tolist()


def matrix_tree_count(graph: Graph, drop: int = 0) -> int:
    """Exact spanning-tree count: one cofactor of the integer Laplacian.

    Any row/column index may be dropped; the result does not depend on the
    choice. The reduced Laplacian is positive definite, so Hadamard's
    inequality bounds its determinant by the product of the kept degrees.
    """
    minor, kept = _reduced_laplacian(graph, drop)
    return _modular_det(minor, math.prod(kept))


def kirchhoff_tree_count(graph: Graph) -> tuple[Fraction, int]:
    """Exact multiplicative degree-Kirchhoff index Kf and tree count tau.

    With vertex 0 dropped, adj = adj(L0) = tau * L0^{-1}, and the resistance
    form Kf * tau = 2E * sum d_i adj_ii - d^T adj d runs over the kept
    degrees d (Chen & Zhang, Discrete Appl. Math. 155, 2007). Each prime
    eliminates [L0 | I] once; primes dividing tau are skipped. Resistances
    are below N, so the CRT bound is 2 E**2 N times Hadamard's bound on tau.
    """
    minor, kept = _reduced_laplacian(graph, 0)
    edges, degrees = len(graph.edges), np.asarray(kept, dtype=np.int64)
    identity = np.eye(len(kept), dtype=np.int64)

    def digits_of(primes):
        solved = _eliminate_mod(minor, identity, primes)
        for p, (tau, adj) in zip(primes, solved):
            yield None if not tau else (  # p divides tau: skip it
                tau, (2 * edges * int(degrees @ adj.diagonal())
                      - int(degrees @ (adj @ degrees % p))) % p)

    bound = math.prod(kept) * 2 * edges * edges * graph.vertex_count
    tau, form = _crt(digits_of, bound, 2, _batch(len(kept), len(kept)))
    return Fraction(form, tau), tau


def compare_spectra(a, b, tol: float) -> ComparisonReport:
    """Elementwise comparison of two eigenvalue multisets after sorting."""
    va = np.sort(np.asarray(a, dtype=float))
    vb = np.sort(np.asarray(b, dtype=float))
    if va.size != vb.size:
        return ComparisonReport(float("inf"), False, int(va.size), int(vb.size))
    deviation = float(np.max(np.abs(va - vb), initial=0.0))
    return ComparisonReport(deviation, deviation <= tol, int(va.size),
                            int(vb.size))
