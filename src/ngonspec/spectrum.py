"""Spectrum transfer across the edge-to-polygon transform.

The full normalized-Laplacian spectrum of the transformed graph is
assembled from the base spectrum alone: the fixed family roots enter with
structural multiplicities, every base eigenvalue off {0, 2} spawns the
roots of its transfer equation, and 0 (plus 2 in the bipartite odd case)
is appended explicitly. Multiplicities stay exact integers throughout, so
generations can be iterated far past any explicitly constructible size.
Eigenvectors can be lifted one transform step along the same bookkeeping.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import oracle, roots
from .graphs import Graph, GrowthCounts

CLUSTER_TOL = 1e-7   # numeric eigenvalues closer than this merge
SNAP_TOL = 1e-9      # distance at which a value snaps to exactly 0 or 2
EDGE_TOL = 1e-12     # slack of the [0, 2] range
_TINY = float(np.finfo(float).tiny)  # below it a float64 loses digits


class UnderflowError(ArithmeticError):
    """Raised when a generation would hold an eigenvalue below float64's
    normal range, whose printed digits would be wrong."""


SOURCE_ZERO = "zero"
SOURCE_TWO = "two"
SOURCE_FAMILY_ZERO = "family-zero"
SOURCE_FAMILY_PLUS = "family-plus"
SOURCE_FAMILY_MINUS = "family-minus"
SOURCE_LIFTED = "lifted"
SOURCE_BASE = "base"


# Source tags in alphabetical order: sorting by code sorts by tag.
SOURCES = tuple(sorted((SOURCE_ZERO, SOURCE_TWO, SOURCE_FAMILY_ZERO,
                        SOURCE_FAMILY_PLUS, SOURCE_FAMILY_MINUS,
                        SOURCE_LIFTED, SOURCE_BASE)))
_CODE = {tag: code for code, tag in enumerate(SOURCES)}
ZERO_CODE = _CODE[SOURCE_ZERO]  # 0 and 2 are their tags, not their sizes
TWO_CODE = _CODE[SOURCE_TWO]
LIFTED_CODE = _CODE[SOURCE_LIFTED]
_FAMILIES = {odd: [(kind, "family-" + kind.value.split("-")[1])
                   for kind in roots.FamilyKind if kind.odd == odd]
             for odd in (False, True)}  # each parity's families with tags


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    source: str
    origin: float | None = None  # base eigenvalue behind a lifted entry


@dataclass(frozen=True)
class _EntryView(Sequence):
    """Read-only SpectrumEntry rows over a Spectrum's columns."""

    spec: Spectrum

    def __len__(self) -> int:
        return len(self.spec.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        s = self.spec
        origin = float(s.origins[index])
        return SpectrumEntry(float(s.values[index]), s.multiplicities[index],
                             SOURCES[s.sources[index]],
                             None if origin == -1.0 else origin)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalue multiset as parallel columns, one row per entry.

    values are float64, multiplicities Python ints in an object array (they
    outgrow 64 bits), sources codes into SOURCES, origins the base value
    behind a lifted row or -1.0. Rows sort by (value, source, origin) and
    stay apart while their sources differ.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    sources: np.ndarray
    origins: np.ndarray

    @property
    def entries(self) -> Sequence[SpectrumEntry]:
        return _EntryView(self)

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities.tolist())

    def expanded(self) -> np.ndarray:
        """Every eigenvalue repeated by multiplicity (explicit sizes only)."""
        return np.repeat(self.values, self.multiplicities.astype(np.intp))


def _check_input(spec: Spectrum, counts: GrowthCounts) -> None:
    if not counts.bipartite and counts.edges < counts.vertices:
        raise ValueError("non-bipartite counts require at least N edges")
    values, mults = spec.values, spec.multiplicities
    bad = (mults < 1) | ~((values > -EDGE_TOL) & (values < 2.0 + EDGE_TOL))
    for value, mult in zip(values[bad].tolist(), mults[bad].tolist()):
        if mult < 1:
            raise ValueError(f"nonpositive multiplicity at value {value}")
        raise ValueError(f"eigenvalue {value} outside [0, 2]")
    zero_mult = sum(mults[spec.sources == ZERO_CODE].tolist())
    if zero_mult != 1:
        raise ValueError(f"0 must have multiplicity 1, found {zero_mult}")
    if spec.total_multiplicity != counts.vertices:
        raise ValueError(f"total multiplicity {spec.total_multiplicity} "
                         f"!= N={counts.vertices}")


def base_spectrum(graph: Graph) -> tuple[Spectrum, GrowthCounts]:
    """Numeric spectrum of the graph itself, clustered into exact multiplicities.

    A connected graph has 0 once, and 2 once exactly when it is bipartite:
    those rows come from its counts, within SNAP_TOL of the numeric ends.
    The eigenvalues between merge where gaps are at most CLUSTER_TOL, into
    one entry per run valued at its mean; a tiny second one stays apart.
    """
    if not graph.connected:
        raise ValueError("spectrum pipeline requires a connected graph")
    counts = graph.counts
    eigs = oracle.eig_sym(oracle.normalized_laplacian(graph))
    if abs(eigs[0]) > SNAP_TOL or (counts.bipartite
                                   and abs(eigs[-1] - 2.0) > SNAP_TOL):
        raise RuntimeError(f"eigenvalues {eigs[0]}..{eigs[-1]} miss 0 "
                           f"or, in a bipartite graph, 2")
    clusters: list[list[float]] = []
    for value in eigs[1:len(eigs) - counts.bipartite].tolist():
        if clusters and value - clusters[-1][-1] <= CLUSTER_TOL:
            clusters[-1].append(value)
        else:
            clusters.append([value])
    rows = [[0.0], *clusters] + [[2.0]] * counts.bipartite  # mean and size
    codes = ([ZERO_CODE] + [_CODE[SOURCE_BASE]] * len(clusters)
             + [TWO_CODE] * counts.bipartite)
    return Spectrum(np.array([sum(row) / len(row) for row in rows]),
                    np.array([len(row) for row in rows], dtype=object),
                    np.array(codes, dtype=np.int8),
                    np.full(len(rows), -1.0)), counts


def _family_blocks(counts: GrowthCounts, n: int):
    """(family, multiplicity, tag) of each fixed block a step adds. The
    families of n's parity, in FamilyKind order, carry N, the cycle count
    E-N+1, and E-N+1 again or E-N when the graph is not bipartite; one of
    multiplicity 0 adds no block."""
    cycles = counts.edges - counts.vertices + 1
    mults = (counts.vertices, cycles, cycles - (not counts.bipartite))
    if min(mults) < 0:
        raise ValueError(f"negative family multiplicities {mults}")
    return [(roots.RootFamily(kind, n), mult, tag) for (kind, tag), mult
            in zip(_FAMILIES[bool(n % 2)], mults) if mult]


def transform_spectrum(spec: Spectrum, counts: GrowthCounts, n: int,
                       solve=None) -> tuple[Spectrum, GrowthCounts]:
    """One transform step on the spectrum level.

    Output multiplicities: the fixed families carry those of _family_blocks,
    each base eigenvalue off {0, 2} contributes its transfer roots with its
    own multiplicity, 0 enters once, and 2 enters once exactly when the
    output is bipartite. The total must close to the grown vertex count.
    solve(lams), if given, stands in for roots.solve_lambda_many(n, lams).
    """
    out = counts.grown(n)
    _check_input(spec, counts)
    blocks = [(np.zeros(1), 1, SOURCE_ZERO)]
    if out.bipartite:
        blocks.append((np.full(1, 2.0), 1, SOURCE_TWO))
    blocks += [(roots.roots_of_family(family), mult, tag)
               for family, mult, tag in _family_blocks(counts, n)]
    inner = (spec.sources != ZERO_CODE) & (spec.sources != TWO_CODE)
    lams = spec.values[inner]
    table = roots.solve_lambda_many(n, lams) if solve is None else solve(lams)
    # Each parent, a fixed block or one eigenvalue off {0, 2} with its row
    # of the transfer table, passes its multiplicity, tag and origin on.
    fixed, fixed_mults, tags = zip(*blocks)
    counts = [len(block) for block in fixed] + [table.shape[1]] * len(lams)
    mults = np.concatenate((np.array(fixed_mults, dtype=object),
                            spec.multiplicities[inner]))
    codes = np.array([_CODE[t] for t in tags] + [LIFTED_CODE] * len(lams),
                     dtype=np.int8)
    origins = np.concatenate((np.full(len(fixed), -1.0), lams))
    mults, codes, origins = (np.repeat(column, counts)
                             for column in (mults, codes, origins))
    values = np.concatenate(fixed + (table.ravel(),))
    total = sum(mults.tolist())
    if total != out.vertices:
        raise RuntimeError(
            f"multiplicity ledger mismatch: {total} != {out.vertices}")
    order = np.argsort(values)  # the one ascending order of distinct values
    ordered = values[order]
    if (ordered[1:] == ordered[:-1]).any():  # ties go by source, then origin
        order = np.lexsort((origins, codes, values))
    return Spectrum(values[order], mults[order], codes[order],
                    origins[order]), out


def row_count(spec: Spectrum, counts: GrowthCounts, n: int, g: int,
              cap: int) -> tuple[int, int]:
    """(t, rows): the rows of generation t = g of iterate_spectrum, or of the
    first generation t with more than cap, from the sizes of the blocks
    transform_spectrum assembles. Rows never drop; at n = 2 each step from
    the third adds one plus and one minus family root, so t is g there."""
    rows, t = len(spec.values), 0
    while t < g and rows <= cap:
        if n == 2 and t >= 2:
            return g, rows + 2 * (g - t)
        out = counts.grown(n)
        rows = 1 + out.bipartite + (n + 1) // 2 * (rows - 1 - counts.bipartite)
        rows += sum(f.degree for f, _, _ in _family_blocks(counts, n))
        counts, t = out, t + 1
    return t, rows


def _reusing_solver(n: int):
    """roots.solve_lambda_many(n, lams) for ascending lams, solving each
    distinct value once and only if the previous call did not have it.

    Every generation adds the same family roots, so from the third on, part
    of the parents repeat the last generation's. A root depends on its own
    lam alone, so a reused row has the bits a new solve would give.
    """
    seen, rows = np.empty(0), np.empty((0, (n + 1) // 2))

    def solve(lams: np.ndarray) -> np.ndarray:
        nonlocal seen, rows
        first = np.ones(len(lams), dtype=bool)  # first of a run of equals
        first[1:] = lams[1:] != lams[:-1]
        distinct = lams[first]
        at = np.searchsorted(seen, distinct)
        known = at < len(seen)
        known[known] = seen[at[known]] == distinct[known]
        new = roots.solve_lambda_many(n, distinct[~known])
        at[~known] = len(seen) + np.arange(len(new))  # rows after the old
        seen, rows = distinct, np.concatenate((rows, new)).take(at, axis=0)
        return rows if len(rows) == len(lams) else rows[np.cumsum(first) - 1]
    return solve


def iterate_spectrum(spec: Spectrum, counts: GrowthCounts, n: int,
                     g: int) -> Iterator[tuple[Spectrum, GrowthCounts]]:
    """Generations 1..g of the spectrum transfer, each as it is made.

    Parents repeated from one generation to the next are solved once; the
    rows are kept for one generation only.
    """
    if g < 0:
        raise ValueError(f"generation must be nonnegative, got {g}")
    solve = _reusing_solver(n)
    for t in range(1, g + 1):
        spec, counts = transform_spectrum(spec, counts, n, solve)
        # Rows ascend and the zero row is 0.0, so another row lies below
        # _TINY exactly when the second row does.
        if spec.values[1] < _TINY:
            raise UnderflowError(f"generation {t} has an eigenvalue below "
                                 f"float64's normal range ({_TINY!r})")
        yield spec, counts


def lift_eigenvector(graph: Graph, n: int, lam: float, vec, mu,
                     tol: float = 1e-8) -> np.ndarray:
    """Extend a base eigenvector with eigenvalue lam to the transformed graph.

    mu is one transfer root of lam, or a 1-D array of them, each with
    a_{n-1}(mu) != 0. Original vertices keep their entries; each new path
    is seeded from its two endpoint values (in random-walk scaling, hence
    the degree square roots) and continued by the recurrence. The result
    is an eigenvector of the transformed graph's normalized Laplacian for
    eigenvalue mu, or a (k, N') block with one such vector per root.
    """
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (graph.vertex_count,):
        raise ValueError(
            f"vector length {vec.shape} does not match {graph.vertex_count}")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("zero vector")
    residual = oracle.laplacian_matvec(graph, vec) - lam * vec
    if float(np.linalg.norm(residual)) > tol * norm:
        raise ValueError("(lam, vec) is not an eigenpair of the base graph")
    mus = np.asarray(mu, dtype=float)
    column = np.atleast_1d(mus)[:, None]  # one row per root
    step = 2.0 * (1.0 - column)
    a_prev = 0.0 * column  # a_{-1}, then a_{n-2} after the loop
    a_last = a_prev + 1.0  # a_0, then a_{n-1}
    for _ in range(n - 1):
        a_prev, a_last = a_last, step * a_last - a_prev
    if np.any(np.abs(a_last) < 1e-12):
        raise ValueError(
            "a_{n-1}(mu) vanishes; mu belongs to a fixed family, not a lift")
    scale = 1.0 / np.sqrt(np.asarray(graph.degrees, dtype=float))
    i, j = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
    # paths[s, r, e] is step s along edge e's path for root r; each step of
    # the recurrence runs on all roots and edges at once.
    paths = np.empty((n - 1, len(column), len(i)))
    seed = vec[i] * scale[i]
    paths[0] = (a_prev / a_last) * seed + vec[j] * scale[j] / a_last
    if n >= 3:
        paths[1] = step * paths[0] - seed
    for k in range(2, n - 1):
        paths[k] = step * paths[k - 1] - paths[k - 2]
    lifted = np.concatenate(
        (np.broadcast_to(vec, (len(column), len(vec))),
         paths.transpose(1, 2, 0).reshape(len(column), -1)), axis=1)
    return lifted if mus.ndim else lifted[0]
