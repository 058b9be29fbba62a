"""Simple graphs and set-valued vertex labelings.

Graphs are undirected, loop-free, without parallel edges, and (by this
package's convention) without isolated vertices, since an unlabeled edge
endpoint is the only thing a labeling can act on. Vertex identifiers are
opaque strings; every ordering in reports and serialization is plain
lexicographic so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Iterator

from .errors import GraphValidationError, InvalidLabelingError
from .sets import IntegerSet, sumset

__all__ = [
    "GraphViolation",
    "find_graph_violations",
    "Graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "LabeledGraph",
]


@dataclass(frozen=True)
class GraphViolation:
    # empty-graph | self-loop | duplicate-edge | duplicate-vertex |
    # isolated-vertex | dangling-endpoint
    kind: str
    element: tuple | str

    def __str__(self):
        return f"{self.kind} at {self.element!r}"


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _vertex_names(n: int, what: str = "graph", least: int = 1) -> list[str]:
    """``n`` vertex names whose lexicographic order is their creation order.

    Up to 26 they are the single letters a, b, c, ...; beyond that, letter
    strings of one fixed width (aa, ab, ...). A ``what`` with fewer than
    ``least`` vertices raises ValueError.
    """
    if not isinstance(n, int) or n < least:
        raise ValueError(f"{what} needs at least {least} vertices, got {n!r}")
    width = 1
    while len(_LETTERS) ** width < n:
        width += 1
    return ["".join(p) for p in islice(product(_LETTERS, repeat=width), n)]


def _canonical_edge(u, v):
    return (u, v) if u <= v else (v, u)


def _bfs_components(vertices, neighbors) -> Iterator[list]:
    """Breadth-first visit order of each component, rooted at its first vertex.

    ``neighbors(v)`` lists the vertices adjacent to ``v``; components come in
    the order their roots appear in ``vertices``.
    """
    seen = set()
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        order = [root]
        for cur in order:
            for nb in neighbors(cur):
                if nb not in seen:
                    seen.add(nb)
                    order.append(nb)
        yield order


def _scan(vertices, edges) -> tuple[list[GraphViolation], dict]:
    """One pass over the raw data: its violations and the adjacency sets of its valid edges."""
    violations = []
    adjacency = {}
    for v in vertices:
        if v in adjacency:
            violations.append(GraphViolation("duplicate-vertex", v))
        else:
            adjacency[v] = set()
    if not adjacency:
        violations.append(GraphViolation("empty-graph", ()))

    for u, v in edges:
        if u == v:
            violations.append(GraphViolation("self-loop", (u, v)))
            continue
        dangling = (u not in adjacency) + (v not in adjacency)  # one report per unknown end
        if dangling:
            violations += [GraphViolation("dangling-endpoint", (u, v))] * dangling
        elif v in adjacency[u]:
            violations.append(GraphViolation("duplicate-edge", _canonical_edge(u, v)))
        else:
            adjacency[u].add(v)
            adjacency[v].add(u)

    isolated = sorted([v for v, ns in adjacency.items() if not ns])
    violations += [GraphViolation("isolated-vertex", v) for v in isolated]
    return violations, adjacency


def find_graph_violations(vertices, edges) -> list[GraphViolation]:
    """Collect every simple-graph violation in the raw data.

    Checks: no vertices at all, duplicate vertex ids, self-loops, duplicate
    edges (in either orientation), endpoints naming no vertex, and vertices
    left without any valid incident edge.
    """
    return _scan(vertices, edges)[0]


class Graph:
    """An immutable simple graph with canonical (lexicographic) ordering.

    Construction validates the data and raises GraphValidationError with the
    full violation list on bad input. Edges are stored as ordered pairs
    (u, v) with u < v.
    """

    __slots__ = ("vertices", "edges", "_adjacency")

    def __init__(self, vertices, edges):
        violations, adjacency = _scan(vertices, edges)
        if violations:
            raise GraphValidationError(violations)
        self.vertices = tuple(sorted(adjacency))
        self._adjacency = {v: tuple(sorted(adjacency[v])) for v in self.vertices}
        self.edges = tuple(
            sorted([(u, v) for u in self.vertices for v in self._adjacency[u] if u < v])
        )

    def neighbors(self, v) -> tuple:
        return self._adjacency[v]

    def degree(self, v) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u, v) -> bool:
        return v in self._adjacency.get(u, ())

    def is_connected(self) -> bool:
        return len(next(_bfs_components(self.vertices, self.neighbors))) == len(self.vertices)

    def graph_id(self) -> str:
        """Canonical edge-list string; no vertex escapes it (none isolated)."""
        return ",".join(f"{u}-{v}" for u, v in self.edges)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, edges={self.graph_id()!r})"


def path_graph(n: int) -> Graph:
    v = _vertex_names(n, "path", 2)
    return Graph(v, [(v[i], v[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    v = _vertex_names(n, "cycle", 3)
    return Graph(v, [(v[i], v[(i + 1) % n]) for i in range(n)])


def complete_graph(n: int) -> Graph:
    v = _vertex_names(n, "complete graph", 2)
    return Graph(v, list(combinations(v, 2)))


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: the first vertex joined to each of the other n-1."""
    v = _vertex_names(n, "star", 2)
    return Graph(v, [(v[0], leaf) for leaf in v[1:]])


class LabeledGraph:
    """A graph together with a total set-valued vertex labeling.

    Edge labels are always the induced sumsets of the endpoint labels and
    are computed here once; there is no way to store anything else. The
    labeling need not be injective -- deciding that is the verifier's job.
    ``vertex_labels`` and ``edge_labels`` are filled in the graph's canonical
    vertex and edge order, so iterating them needs no re-sort. Facts derived
    from the labels (the injectivity report, the classification report) are
    computed on first use by ``_fact`` and kept in ``_cache``.
    """

    __slots__ = ("graph", "vertex_labels", "edge_labels", "_cache")

    def __init__(self, graph: Graph, vertex_labels):
        labels = {}
        for v in graph.vertices:
            if v not in vertex_labels:
                raise InvalidLabelingError(f"no label for vertex {v!r}")
            label = IntegerSet(vertex_labels[v])
            if not label:
                raise InvalidLabelingError(f"empty label for vertex {v!r}")
            labels[v] = label
        self.graph = graph
        self.vertex_labels = labels
        self.edge_labels = {
            (u, v): sumset(labels[u], labels[v]) for u, v in graph.edges
        }
        self._cache = {}

    def _fact(self, key, compute):
        """``compute(self)``, run on first use and cached under ``key``."""
        if key not in self._cache:
            self._cache[key] = compute(self)
        return self._cache[key]

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.graph == other.graph and self.vertex_labels == other.vertex_labels

    def __hash__(self):
        return hash((self.graph, tuple(self.vertex_labels.items())))

    def __repr__(self):
        return f"LabeledGraph({self.graph!r})"
