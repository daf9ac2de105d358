"""Brute-force ground truth for the closed-form pipeline.

Everything here works directly on an explicitly constructed graph: dense
normalized Laplacian, eigenvalues from LAPACK, exact spanning-tree counts
and Kirchhoff indices, and multiset spectrum comparison. None of it shares
logic with the recurrence or root modules, which is the point of having an
oracle.

Exact values come from one kernel: [L0 | B], the reduced integer Laplacian
of a connected graph beside a right-hand side, is eliminated in int64
modulo primes below 2**26 for det L0 and adj(L0) @ B mod p, and the
Chinese remainder theorem joins residues until the modulus exceeds twice
a bound. L0 is positive definite, so it needs no pivoting, and a prime
that meets a zero pivot is skipped. Tree counts take a zero-width B and
Hadamard's bound, the kept-degree product; the Kirchhoff index takes
B = I and multiplies the bound by 2 E**2 N. Entries stay below
order * p**2 < 2**63, so orders of 2048 and more are refused.

L0 is built in the order of rounds of multiple minimum degree (Liu, ACM
TOMS 11, 1985), which extends the minimum-degree order of George & Liu
(Computer Solution of Large Sparse Positive Definite Systems, 1981). A
round takes every pivot whose (degree in the fill pattern, index) is
below its neighbours'. Such a set is independent, so one round is one
gathered multiply and one scatter-add over its pivots' neighbour pairs.
A grown graph's newest path vertices have degree 2 and form one round,
so a triangle grown five times, 366 vertices, takes 7 rounds. A pivot
with more neighbours than the square root of the vertices left goes
alone, as a rank-one update. One call eliminates a batch of primes in a
(P, n, n + m) array, and MODULAR_BATCH_BYTES caps a batch's array.
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
SYMMETRY_BLOCK_ROWS = 256   # rows per block of eig_sym's symmetry check
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
    u, v = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
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
    # max |m| and the symmetry check without an N x N temporary
    scale = max(1.0, float(m.max(initial=0.0)), -float(m.min(initial=0.0)))
    for start in range(0, len(m), SYMMETRY_BLOCK_ROWS):
        rows = slice(start, start + SYMMETRY_BLOCK_ROWS)
        gap = m[rows] - m[:, rows].T
        if float(np.max(np.abs(gap, out=gap), initial=0.0)) > 1e-14 * scale:
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


def _pairs(first_of, second_of, groups: int):
    """(down, across): every pair of an entry down[t] of first_of and an
    entry across[t] of second_of in the same group; both list each
    entry's group below groups, in ascending order."""
    per = np.bincount(second_of, minlength=groups)
    reps = per[first_of]
    down = np.repeat(np.arange(first_of.size), reps)
    across = np.arange(down.size) + np.repeat(
        (np.cumsum(per) - per)[first_of] - np.cumsum(reps) + reps, reps)
    return down, across


def _rounds(pattern: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(order, ends): elimination rounds of a symmetric bool pattern.

    Multiple minimum degree (Liu, ACM TOMS 11, 1985): a round takes every
    remaining vertex whose (degree in the fill graph, index) is below its
    neighbours', an independent set, and joins each one's neighbours into
    a clique. A vertex of degree d joins a round only if d**2 is at most
    the number of vertices left, and if the lowest has a larger degree it
    goes alone: a pair update costs more per entry than a rank-one one.
    A round stops early where the sum of d * (d + n) would pass 2 n**2,
    which caps the entry pairs one round of _eliminate_mod updates at
    2 n**2 and its back substitution's at 2 n m, when m <= n. Once the
    graph left is complete, its vertices go one per round in index order.
    Position k of the elimination order holds index order[k], and ends
    lists where each round ends in that order.
    """
    size = len(pattern)
    adj = pattern & ~np.eye(size, dtype=bool)
    left, order, ends = np.arange(size), [np.arange(0)], []
    while left.size:
        degree = adj.sum(axis=1)
        if degree.min() == left.size - 1:  # complete: a dense front
            order.append(left)
            ends.extend(range(size - left.size + 1, size + 1))
            break
        key = degree * size + np.arange(left.size)
        pivots = key.argmin(keepdims=True)
        if degree[pivots[0]] ** 2 <= left.size:  # else it goes alone
            lowest = ~(adj & (key < key[:, None])).any(axis=1)
            pivots = np.flatnonzero(lowest & (degree ** 2 <= left.size))
            pairs = np.cumsum(degree[pivots] * (degree[pivots] + size))
            pivots = pivots[:max(1, np.searchsorted(pairs, 2 * size * size,
                                                    "right"))]
        pivot_of, near = np.nonzero(adj[pivots])
        down, across = _pairs(pivot_of, pivot_of, pivots.size)
        adj[near[down], near[across]] = True
        keep = np.ones(left.size, dtype=bool)
        keep[pivots] = False
        adj = adj[keep][:, keep]
        np.fill_diagonal(adj, False)
        order.append(left[pivots])
        ends.append(size - left.size + pivots.size)
        left = left[keep]
    return np.concatenate(order), tuple(ends)


def _eliminate_mod(mat: np.ndarray, rhs: np.ndarray, ends, primes):
    """[(det mat mod p, adj(mat) @ rhs mod p), or None if a pivot is 0 mod p].

    mat comes in _rounds' elimination order, with round ends ends, and
    [mat | rhs] is one (P, n, n + m) int64 array. A round's pivots S are
    independent, so A_SS is diagonal and A_RR -= A_RS diag(1/a_ss) A_SR
    is one gathered multiply and one scatter-add over each pivot's
    (row, column) entry pairs; a lone pivot is a rank-one update, by
    slices once its column is dense. Inverses are taken once per distinct
    (prime, pivot). Each pivot adds at most one product below p**2 to an
    entry, so entries stay under order * p**2 < 2**63. Back substitution
    gives x = mat^{-1} @ rhs round by round in reverse, and adj(mat) @ rhs
    = det * x; a zero-width rhs costs the det only.

    With no pivoting, pivot k is M_k / M_(k-1), a ratio of leading
    principal minors (M_0 = 1). A zero pivot's inverse is taken as 0, so
    its prime's det is 0 and it gets None, exactly when it divides some
    M_k; its columns update nothing, and the bound holds. Both callers pass
    a reduced Laplacian of a connected graph, which is positive definite:
    each M_k is a positive integer at most the product of the first k
    diagonal entries (Hadamard), so only finitely many primes are skipped.
    At the 400-vertex cap the M_k have fewer than 7 * 10**5 bits in all,
    and fewer than 3 * 10**4 primes above 2**25 divide one, of about
    1.9 * 10**6 there.
    """
    size, width = rhs.shape
    if size >= MAX_MODULAR_ORDER:
        raise ValueError(f"modular determinant needs order below "
                         f"{MAX_MODULAR_ORDER}, got {size}")
    count = len(primes)
    mod = np.array(primes, dtype=np.int64)[:, None]
    a = np.zeros((count, size, size + width), dtype=np.int64)
    rows, cols = np.nonzero(mat)  # only the nonzeros need reducing
    a[:, rows, cols] = mat[rows, cols] % mod
    rows, cols = np.nonzero(rhs)
    a[:, rows, size + cols] = rhs[rows, cols] % mod
    det, done = [1] * count, []
    for k, stop in zip((0, *ends), ends):
        pivots = np.diagonal(a[:, k:stop, k:stop], axis1=1, axis2=2) % mod
        # (pivot, row) below and (pivot, column) right of the pivots; an
        # entry that is 0 before reduction is 0 mod p
        pivot_of, rows = np.nonzero((a[:, stop:size, k:stop] != 0)
                                    .any(axis=0).T)
        row_of, cols = np.nonzero((a[:, k:stop, stop:] != 0).any(axis=0))
        rows, cols = rows + stop, cols + stop
        inverses = []
        for i, (p, values) in enumerate(zip(primes, pivots.tolist())):
            det[i] = det[i] * math.prod(values) % p
            # few pivots differ; a zero pivot gets 0, so it updates nothing
            inverse = {v: pow(v, -1, p) if v else 0 for v in set(values)}
            inverses.append([inverse[v] for v in values])
        inverses = np.array(inverses)
        if width:
            done.append((k, stop, inverses, k + row_of[cols < size],
                         cols[cols < size]))
        if stop == k + 1 and rows.size and cols.size:  # a rank-one update
            dense = 2 * rows.size > size - k  # slices beat gathers
            if dense:
                rows, cols = np.s_[rows[0]:size], np.s_[cols[0]:]
            factors = a[:, rows, k] % mod * inverses % mod
            a[:, rows if dense else rows[:, None], cols] -= \
                factors[:, :, None] * (a[:, k:stop, cols] % mod[:, :, None])
        elif rows.size and cols.size:
            down, across = _pairs(pivot_of, row_of, stop - k)
            factors = a[:, rows, k + pivot_of] % mod \
                * inverses[:, pivot_of] % mod
            terms = factors[:, down] \
                * (a[:, k + row_of[across], cols[across]] % mod)
            np.subtract.at(a.reshape(count, -1), (np.s_[:], rows[down] * (
                size + width) + cols[across]), terms)  # pairs repeat
    x = a[:, :, size:]
    for k, stop, inverses, rows, cols in reversed(done):
        if rows.size:  # rows ascend: sum each row's terms in one run
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            x[:, rows[starts]] -= np.add.reduceat(
                (a[:, rows, cols] % mod)[:, :, None] * x[:, cols], starts,
                axis=1)
        x[:, k:stop] = x[:, k:stop] % mod[:, :, None] \
            * inverses[:, :, None] % mod[:, :, None]
    adj = x * np.array(det)[:, None, None] % mod[:, :, None]
    return [(d, adj_rhs) if d else None for d, adj_rhs in zip(det, adj)]


def _crt(digits_of, bound: int, count: int, batch: int) -> list[int]:
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


def _reduced_laplacian(graph: Graph, drop: int):
    """(minor, kept, ends): the integer Laplacian without row and column
    drop, its diagonal and its round ends, in _rounds' order of the
    pattern sorted by kept degree. A symmetric permutation changes neither
    det nor adj's quadratic forms."""
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
    order, ends = _rounds((lap != 0)[kept][:, kept])
    minor = lap[np.ix_(kept[order], kept[order])]
    return minor, minor.diagonal().tolist(), ends


def matrix_tree_count(graph: Graph, drop: int = 0) -> int:
    """Exact spanning-tree count: one cofactor of the integer Laplacian.

    Any row/column index may be dropped; the result does not depend on the
    choice. The reduced Laplacian is positive definite, so Hadamard's
    inequality bounds its determinant by the product of the kept degrees.
    """
    minor, kept, ends = _reduced_laplacian(graph, drop)

    def digits_of(primes):
        return [solved and solved[:1] for solved
                in _eliminate_mod(minor, minor[:, :0], ends, primes)]

    (trees,) = _crt(digits_of, math.prod(kept), 1, _batch(len(kept), 0))
    return trees


def kirchhoff_tree_count(graph: Graph) -> tuple[Fraction, int]:
    """Exact multiplicative degree-Kirchhoff index Kf and tree count tau.

    With vertex 0 dropped, adj = adj(L0) = tau * L0^{-1}, and the resistance
    form Kf * tau = 2E * sum d_i adj_ii - d^T adj d runs over the kept
    degrees d (Chen & Zhang, Discrete Appl. Math. 155, 2007). Each prime
    eliminates [L0 | I] once; primes dividing a leading minor of L0 are
    skipped, which takes in every prime dividing tau. Resistances are
    below N, so the CRT bound is 2 E**2 N times Hadamard's bound on tau.
    """
    minor, kept, ends = _reduced_laplacian(graph, 0)
    edges, degrees = len(graph.edges), np.asarray(kept, dtype=np.int64)
    identity = np.eye(len(kept), dtype=np.int64)

    def digits(p, tau, adj):
        return tau, (2 * edges * int(degrees @ adj.diagonal())
                     - int(degrees @ (adj @ degrees % p))) % p

    def digits_of(primes):
        return [solved and digits(p, *solved) for p, solved in zip(
            primes, _eliminate_mod(minor, identity, ends, primes))]

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
