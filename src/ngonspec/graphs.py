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
    """Raised when work on an explicit graph would exceed a size cap."""

    def __init__(self, predicted: int, cap: int,
                 subject: str = "explicit construction"):
        super().__init__(f"{subject} needs {predicted} vertices, cap is {cap}")
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


@dataclass(frozen=True)
class GrowthCounts:
    """Exact vertex and edge counts of the g-fold transform."""

    vertices: int
    edges: int


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
    count = max(max(u, v) for u, v in pairs) + 1
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
    """
    if n < 2:
        raise GraphError(f"polygon parameter must be at least 2, got {n}")
    if not graph.connected:
        raise GraphError("transform requires a connected graph")
    base = graph.vertex_count
    new_edges = list(graph.edges)
    for e, (i, j) in enumerate(graph.edges):
        first = base + e * (n - 1)
        path = [i] + [first + k for k in range(n - 1)] + [j]
        new_edges.extend(zip(path, path[1:]))
    return make_graph(base + (n - 1) * len(graph.edges), new_edges)


def predict_counts(n0: int, e0: int, n: int, g: int) -> GrowthCounts:
    """Exact vertex/edge counts after g growth steps, without construction."""
    if n0 < 2 or e0 < 1:
        raise GraphError(f"invalid base counts N={n0}, E={e0}")
    if n < 2:
        raise GraphError(f"polygon parameter must be at least 2, got {n}")
    if g < 0:
        raise GraphError(f"generation must be nonnegative, got {g}")
    growth, remainder = divmod((n + 1) ** g - 1, n)
    assert remainder == 0  # geometric series, always divisible
    return GrowthCounts(n0 + (n - 1) * growth * e0, (n + 1) ** g * e0)


def iterate_transform(graph: Graph, n: int, g: int,
                      cap: int = DEFAULT_EXPLICIT_CAP) -> Graph:
    """Apply the transform g times, refusing results beyond cap vertices."""
    predicted = predict_counts(graph.vertex_count, len(graph.edges), n, g)
    if predicted.vertices > cap:
        raise CapExceededError(predicted.vertices, cap)
    out = graph
    for _ in range(g):
        out = polygon_transform(out, n)
    return out
