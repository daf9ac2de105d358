"""Simple undirected graphs and the edge-to-polygon growth operation.

One growth step keeps every edge {i, j} and attaches a new path of length
n between i and j, so each original edge becomes part of an (n+1)-cycle.
Vertex and edge counts of the iterated graphs follow exact closed forms
and are computed in unbounded integer arithmetic; explicit construction
is only attempted below a configurable vertex cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

DEFAULT_EXPLICIT_CAP = 100_000


class GraphError(ValueError):
    """Raised for inputs that violate the structural requirements."""


class CapExceededError(RuntimeError):
    """Raised when work would exceed a size cap, in vertices or in rows."""

    def __init__(self, predicted: int, cap: int,
                 subject: str = "explicit construction", unit="vertices"):
        super().__init__(f"{subject} needs {predicted} {unit}, cap is {cap}")
        self.predicted = predicted
        self.cap = cap


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with vertex ids 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # lexicographically sorted, u < v
    degrees: tuple[int, ...]
    bipartite: bool
    components: int

    @property
    def connected(self) -> bool:
        return self.components == 1

    @property
    def counts(self) -> GrowthCounts:
        return GrowthCounts(self.vertex_count, len(self.edges), self.bipartite)


@dataclass(frozen=True)
class GrowthCounts:
    """Vertex count, edge count and bipartiteness of a connected graph.

    They are all the growth law reads, and all that a spectrum's
    multiplicities depend on.
    """

    vertices: int
    edges: int
    bipartite: bool

    def grown(self, n: int, g: int = 1) -> GrowthCounts:
        """Counts after g growth steps, exact, without construction.

        Each step adds n-1 vertices and n edges per edge; the result is
        bipartite exactly when the input is and every new cycle, of n+1
        edges, is even.
        """
        if self.vertices < 2 or self.edges < 1:
            raise GraphError(
                f"invalid base counts N={self.vertices}, E={self.edges}")
        if n < 2:
            raise GraphError(f"polygon parameter must be at least 2, got {n}")
        if g < 0:
            raise GraphError(f"generation must be nonnegative, got {g}")
        growth = ((n + 1) ** g - 1) // n  # geometric series, always exact
        return GrowthCounts(self.vertices + (n - 1) * growth * self.edges,
                            (n + 1) ** g * self.edges,
                            self.bipartite and (n % 2 == 1 or g == 0))


def make_graph(vertex_count: int, edges) -> Graph:
    """Build a Graph from an edge collection, computing the derived flags.

    Edges are deduplicated and normalized to (min, max) order. Every vertex
    must carry at least one edge; self-loops are rejected.
    """
    if vertex_count < 2:
        raise GraphError(f"need at least two vertices, got {vertex_count}")
    seen = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"vertex id out of range in edge ({u}, {v})")
        seen.add((u, v) if u < v else (v, u))
    if not seen:
        raise GraphError("empty edge set")
    edge_list = tuple(sorted(seen))
    degrees = [0] * vertex_count
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edge_list:
        degrees[u] += 1
        degrees[v] += 1
        adj[u].append(v)
        adj[v].append(u)
    for vertex, degree in enumerate(degrees):
        if degree == 0:
            raise GraphError(f"vertex {vertex} has no edges")
    color = [-1] * vertex_count
    components = 0
    bipartite = True
    for start in range(vertex_count):
        if color[start] >= 0:
            continue
        components += 1
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    bipartite = False
    return Graph(vertex_count, edge_list, tuple(degrees), bipartite,
                 components)


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines into a connected Graph.

    Blank lines and lines starting with '#' are ignored. Vertex ids must be
    nonnegative integers; the vertex count is one past the largest id.
    """
    pairs = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {number}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(
                f"line {number}: vertex ids must be integers") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {number}: vertex ids must be nonnegative")
        if u == v:
            raise GraphError(f"line {number}: self-loop at vertex {u}")
        pairs.append((u, v))
    if not pairs:
        raise GraphError("empty edge set")
    # An unused id below the largest is found before anything of the
    # count's size is allocated, so a stray huge id costs nothing.
    used = {vertex for pair in pairs for vertex in pair}
    count = max(used) + 1
    if count > len(used):
        missing = next(k for k in range(count) if k not in used)
        raise GraphError(f"vertex {missing} has no edges")
    graph = make_graph(count, pairs)
    if not graph.connected:
        raise GraphError(
            f"graph is disconnected ({graph.components} components)")
    return graph


def polygon_transform(graph: Graph, n: int) -> Graph:
    """Attach a length-n path alongside every edge.

    Path vertices of the e-th edge (i, j), i < j, in lexicographic edge
    order receive ids vertex_count + e*(n-1) + k for k = 0..n-2, walking
    from i towards j. The labeling is deterministic so eigenvector indexing
    can rely on it.

    The flags follow from the growth law, so nothing is searched for: every
    old degree doubles, every path vertex has degree 2, the result stays
    connected, and GrowthCounts.grown gives its bipartite flag.
    """
    counts = graph.counts.grown(n)
    if not graph.connected:
        raise GraphError("transform requires a connected graph")
    base = graph.vertex_count
    added = (n - 1) * len(graph.edges)
    new_edges = list(graph.edges)
    for e, (i, j) in enumerate(graph.edges):
        first = base + e * (n - 1)
        last = first + n - 2
        new_edges.append((i, first))
        new_edges.extend((k, k + 1) for k in range(first, last))
        new_edges.append((j, last))
    new_edges.sort()
    return Graph(counts.vertices, tuple(new_edges),
                 tuple(2 * d for d in graph.degrees) + (2,) * added,
                 counts.bipartite, 1)


def iterate_transform(graph: Graph, n: int, g: int,
                      cap: int = DEFAULT_EXPLICIT_CAP) -> Graph:
    """Apply the transform g times, refusing results beyond cap vertices."""
    predicted = graph.counts.grown(n, g)
    if predicted.vertices > cap:
        raise CapExceededError(predicted.vertices, cap)
    out = graph
    for _ in range(g):
        out = polygon_transform(out, n)
    return out
