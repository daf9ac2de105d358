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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import aseries, oracle, roots
from .graphs import Graph

CLUSTER_TOL = 1e-7   # numeric eigenvalues closer than this merge
SNAP_TOL = 1e-9      # distance at which a value snaps to exactly 0 or 2
EDGE_TOL = 1e-12     # slack of the [0, 2] range

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
_LIFTED = _CODE[SOURCE_LIFTED]
ZERO_CODE = _CODE[SOURCE_ZERO]  # 0 and 2 are their tags, not their sizes
TWO_CODE = _CODE[SOURCE_TWO]


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

    @classmethod
    def from_entries(cls, entries) -> Spectrum:
        """Columns from SpectrumEntry rows, kept in the order given."""
        entries = list(entries)
        return cls(np.array([e.value for e in entries], dtype=float),
                   np.array([e.multiplicity for e in entries], dtype=object),
                   np.array([_CODE[e.source] for e in entries], dtype=np.int8),
                   np.array([-1.0 if e.origin is None else e.origin
                             for e in entries], dtype=float))

    @property
    def entries(self) -> Sequence[SpectrumEntry]:
        return _EntryView(self)

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities.tolist())

    def source_labels(self) -> list[str]:
        """Export tag per row; each distinct lifted origin formatted once."""
        lifted = self.sources == _LIFTED
        origins, slot = np.unique(self.origins[lifted], return_inverse=True)
        labels = np.array([*SOURCES, *(f"lifted({o:.17g})"
                                       for o in origins.tolist())],
                          dtype=object)
        codes = self.sources.astype(np.intp)
        codes[lifted] = len(SOURCES) + slot
        return labels[codes].tolist()

    def expanded(self) -> np.ndarray:
        """Every eigenvalue repeated by multiplicity (explicit sizes only)."""
        return np.repeat(self.values, self.multiplicities.astype(np.intp))


@dataclass(frozen=True)
class SpectrumContext:
    vertices: int
    edges: int
    bipartite: bool


def _check_input(spec: Spectrum, ctx: SpectrumContext) -> None:
    if ctx.vertices < 2 or ctx.edges < 1:
        raise ValueError(f"invalid context N={ctx.vertices}, E={ctx.edges}")
    if not ctx.bipartite and ctx.edges < ctx.vertices:
        raise ValueError("non-bipartite context requires at least N edges")
    values, mults = spec.values, spec.multiplicities
    bad = (mults < 1) | ~((values > -EDGE_TOL) & (values < 2.0 + EDGE_TOL))
    for value, mult in zip(values[bad].tolist(), mults[bad].tolist()):
        if mult < 1:
            raise ValueError(f"nonpositive multiplicity at value {value}")
        raise ValueError(f"eigenvalue {value} outside [0, 2]")
    zero_mult = sum(mults[spec.sources == ZERO_CODE].tolist())
    if zero_mult != 1:
        raise ValueError(f"0 must have multiplicity 1, found {zero_mult}")
    if spec.total_multiplicity != ctx.vertices:
        raise ValueError(
            f"total multiplicity {spec.total_multiplicity} != N={ctx.vertices}")


def base_spectrum(graph: Graph) -> tuple[Spectrum, SpectrumContext]:
    """Numeric spectrum of the graph itself, clustered into exact multiplicities.

    Eigenvalues within CLUSTER_TOL of each other merge into one entry whose
    value is the cluster mean; values within SNAP_TOL of 0 or 2 snap exactly.
    """
    if not graph.connected:
        raise ValueError("spectrum pipeline requires a connected graph")
    eigs = oracle.eig_sym(oracle.normalized_laplacian(graph))
    clusters: list[list[float]] = []
    for value in eigs:
        if clusters and value - clusters[-1][-1] <= CLUSTER_TOL:
            clusters[-1].append(float(value))
        else:
            clusters.append([float(value)])
    entries = []
    for cluster in clusters:
        value = sum(cluster) / len(cluster)
        source = SOURCE_BASE
        if abs(value) <= SNAP_TOL:
            value, source = 0.0, SOURCE_ZERO
        elif abs(value - 2.0) <= SNAP_TOL:
            value, source = 2.0, SOURCE_TWO
        entries.append(SpectrumEntry(value, len(cluster), source))
    if entries[0].value != 0.0 or entries[0].multiplicity != 1:
        raise RuntimeError("connected graph must have a simple 0 eigenvalue")
    has_two = entries[-1].value == 2.0
    if has_two != graph.bipartite:
        raise RuntimeError("eigenvalue 2 disagrees with the bipartite flag")
    ctx = SpectrumContext(graph.vertex_count, len(graph.edges), graph.bipartite)
    return Spectrum.from_entries(entries), ctx


def transform_spectrum(spec: Spectrum, ctx: SpectrumContext,
                       n: int) -> tuple[Spectrum, SpectrumContext]:
    """One transform step on the spectrum level.

    Output multiplicities: the zero-type family carries N, the others carry
    the cycle count E-N+1 (the minus-type family drops to E-N when the
    input is not bipartite), each base eigenvalue off {0, 2} contributes
    its transfer roots with its own multiplicity, 0 enters once, and 2
    enters once exactly when the output is bipartite (odd n, bipartite
    input). The total must close to the new vertex count.
    """
    if n < 2:
        raise ValueError(f"polygon parameter must be at least 2, got {n}")
    _check_input(spec, ctx)
    odd = bool(n % 2)
    out_bipartite = ctx.bipartite and odd
    new_vertices = ctx.vertices + (n - 1) * ctx.edges
    new_edges = (n + 1) * ctx.edges
    cycles = ctx.edges - ctx.vertices + 1
    minus_mult = cycles if ctx.bipartite else cycles - 1
    blocks = [(np.zeros(1), 1, SOURCE_ZERO)]
    if out_bipartite:
        blocks.append((np.full(1, 2.0), 1, SOURCE_TWO))
    if odd:
        plan = [(roots.FamilyKind.ODD_ZERO, ctx.vertices, SOURCE_FAMILY_ZERO),
                (roots.FamilyKind.ODD_PLUS, cycles, SOURCE_FAMILY_PLUS),
                (roots.FamilyKind.ODD_MINUS, minus_mult, SOURCE_FAMILY_MINUS)]
    else:
        plan = [(roots.FamilyKind.EVEN_PLUS, ctx.vertices, SOURCE_FAMILY_PLUS),
                (roots.FamilyKind.EVEN_ZERO, cycles, SOURCE_FAMILY_ZERO),
                (roots.FamilyKind.EVEN_MINUS, minus_mult, SOURCE_FAMILY_MINUS)]
    for kind, mult, tag in plan:
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for {tag}")
        if mult == 0:
            continue
        family = roots.roots_of_family(roots.RootFamily(kind, n))
        blocks.append((np.array(family.roots), mult, tag))
    inner = (spec.sources != ZERO_CODE) & (spec.sources != TWO_CODE)
    lams = spec.values[inner]
    table = roots.solve_lambda_many(n, lams)
    # Each parent, a fixed block or one eigenvalue off {0, 2} with its row
    # of the transfer table, passes its multiplicity, tag and origin on.
    fixed, fixed_mults, tags = zip(*blocks)
    counts = [len(block) for block in fixed] + [table.shape[1]] * len(lams)
    mults = np.concatenate((np.array(fixed_mults, dtype=object),
                            spec.multiplicities[inner]))
    codes = np.array([_CODE[t] for t in tags] + [_LIFTED] * len(lams),
                     dtype=np.int8)
    origins = np.concatenate((np.full(len(fixed), -1.0), lams))
    mults, codes, origins = (np.repeat(column, counts)
                             for column in (mults, codes, origins))
    values = np.concatenate(fixed + (table.ravel(),))
    total = sum(mults.tolist())
    if total != new_vertices:
        raise RuntimeError(
            f"multiplicity ledger mismatch: {total} != {new_vertices}")
    order = np.lexsort((origins, codes, values))
    return (Spectrum(values[order], mults[order], codes[order],
                     origins[order]),
            SpectrumContext(new_vertices, new_edges, out_bipartite))


def iterate_spectrum(spec: Spectrum, ctx: SpectrumContext, n: int,
                     g: int) -> tuple[Spectrum, SpectrumContext]:
    """g-fold spectrum transfer; g = 0 returns the input unchanged."""
    if g < 0:
        raise ValueError(f"generation must be nonnegative, got {g}")
    for _ in range(g):
        spec, ctx = transform_spectrum(spec, ctx, n)
    return spec, ctx


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
    a_last = aseries.eval_a(n - 1, column)
    if np.any(np.abs(a_last) < 1e-12):
        raise ValueError(
            "a_{n-1}(mu) vanishes; mu belongs to a fixed family, not a lift")
    a_prev = aseries.eval_a(n - 2, column)
    scale = 1.0 / np.sqrt(np.asarray(graph.degrees, dtype=float))
    i, j = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
    # paths[s, r, e] is step s along edge e's path for root r; each step of
    # the recurrence runs on all roots and edges at once.
    paths = np.empty((n - 1, len(column), len(i)))
    seed = vec[i] * scale[i]
    paths[0] = (a_prev / a_last) * seed + vec[j] * scale[j] / a_last
    step = 2.0 * (1.0 - column)
    if n >= 3:
        paths[1] = step * paths[0] - seed
    for k in range(2, n - 1):
        paths[k] = step * paths[k - 1] - paths[k - 2]
    lifted = np.concatenate(
        (np.broadcast_to(vec, (len(column), len(vec))),
         paths.transpose(1, 2, 0).reshape(len(column), -1)), axis=1)
    return lifted if mus.ndim else lifted[0]
