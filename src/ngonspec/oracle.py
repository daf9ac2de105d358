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


def _eliminate_mod(mat: np.ndarray, rhs: np.ndarray, p: int):
    """det mat mod p and, when that is nonzero, adj(mat) @ rhs mod p.

    Gaussian elimination of [mat | rhs] in int64. Only the pivot column
    and row are reduced mod p; the trailing block takes one unreduced
    rank-one update per step, each below p**2, so its entries stay under
    order * p**2 < 2**63. Back substitution gives x = mat^{-1} @ rhs, and
    adj(mat) @ rhs = det * x; a zero-width rhs costs the determinant only.
    """
    size = len(mat)
    if size >= MAX_MODULAR_ORDER:
        raise ValueError(f"modular determinant needs order below "
                         f"{MAX_MODULAR_ORDER}, got {size}")
    a = np.concatenate((mat, rhs), axis=1) % p
    det = 1
    for k in range(size):
        col = a[k:, k] % p
        pivot = int(col[0])
        if not pivot:
            nonzero = np.flatnonzero(col)
            if not nonzero.size:
                return 0, None
            r = int(nonzero[0])
            a[[k, k + r], k:] = a[[k + r, k], k:]
            col[[0, r]] = col[[r, 0]]
            pivot = int(col[0])
            det = -det
        det = det * pivot % p
        factors = col[1:] * pow(pivot, -1, p) % p
        a[k + 1:, k + 1:] -= np.multiply.outer(factors, a[k, k + 1:] % p)
    x = a[:, size:] % p
    for k in range(size - 1, -1, -1) if x.size else ():
        x[k] = ((x[k] - (a[k, k + 1:size] % p) @ x[k + 1:]) % p
                * pow(int(a[k, k]), -1, p) % p)
    return det % p, x * det % p


def _crt(digits_of, bound: int, count: int = 1) -> list[int]:
    """count integers in [-bound, bound] from their residues mod primes.

    digits_of(p) gives the count residues mod p, or None to skip p. Primes
    are taken until their product exceeds 2 * bound, and Garner's
    mixed-radix step joins the digits.
    """
    values, modulus, index = [0] * count, 1, 0
    while modulus <= 2 * bound:
        p, index = _prime(index), index + 1
        if (digits := digits_of(p)) is None:
            continue
        inverse = pow(modulus, -1, p)
        values = [v + modulus * ((r - v) * inverse % p)
                  for v, r in zip(values, digits)]
        modulus *= p
    return [v - modulus if 2 * v > modulus else v for v in values]


def _modular_det(mat: np.ndarray, bound: int) -> int:
    """Exact det of an integer matrix with |det| <= bound, via CRT."""
    mat = np.asarray(mat, dtype=np.int64)
    (det,) = _crt(lambda p: _eliminate_mod(mat, mat[:, :0], p)[:1], bound)
    return det


def _reduced_laplacian(graph: Graph, drop: int, cap: int):
    """The integer Laplacian without row and column drop; kept degrees."""
    count = graph.vertex_count
    if count > cap:
        raise CapExceededError(count, cap, "exact spanning-tree count")
    if not graph.connected:
        raise GraphError("spanning trees need a connected graph")
    if not 0 <= drop < count:
        raise ValueError(f"drop index {drop} out of range")
    lap = np.zeros((count, count), dtype=np.int64)
    u, v = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
    lap[u, v] = lap[v, u] = -1
    np.fill_diagonal(lap, graph.degrees)
    minor = np.delete(np.delete(lap, drop, 0), drop, 1)
    return minor, graph.degrees[:drop] + graph.degrees[drop + 1:]


def matrix_tree_count(graph: Graph, drop: int = 0,
                      cap: int = TREE_COUNT_CAP) -> int:
    """Exact spanning-tree count: one cofactor of the integer Laplacian.

    Any row/column index may be dropped; the result does not depend on the
    choice. The reduced Laplacian is positive definite, so Hadamard's
    inequality bounds its determinant by the product of the kept degrees.
    """
    minor, kept = _reduced_laplacian(graph, drop, cap)
    return _modular_det(minor, math.prod(kept))


def kirchhoff_tree_count(graph: Graph) -> tuple[Fraction, int]:
    """Exact multiplicative degree-Kirchhoff index Kf and tree count tau.

    With vertex 0 dropped, adj = adj(L0) = tau * L0^{-1}, and the resistance
    form Kf * tau = 2E * sum d_i adj_ii - d^T adj d runs over the kept
    degrees d (Chen & Zhang, Discrete Appl. Math. 155, 2007). Each prime
    eliminates [L0 | I] once; primes dividing tau are skipped. Resistances
    are below N, so the CRT bound is 2 E**2 N times Hadamard's bound on tau.
    """
    minor, kept = _reduced_laplacian(graph, 0, TREE_COUNT_CAP)
    edges, degrees = len(graph.edges), np.asarray(kept, dtype=np.int64)
    identity = np.eye(len(kept), dtype=np.int64)

    def digits_of(p):
        tau, adj = _eliminate_mod(minor, identity, p)
        if tau:  # else None: p divides tau and is skipped
            return tau, (2 * edges * int(degrees @ adj.diagonal())
                         - int(degrees @ (adj @ degrees % p))) % p

    bound = math.prod(kept) * 2 * edges * edges * graph.vertex_count
    tau, form = _crt(digits_of, bound, 2)
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
