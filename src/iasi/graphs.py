"""Simple graphs and set-valued vertex labelings.

Graphs are undirected, loop-free, without parallel edges, and (by this
package's convention) without isolated vertices, since an unlabeled edge
endpoint is the only thing a labeling can act on. Vertex identifiers are
opaque strings (``Graph`` rejects any other type); every ordering in
reports and serialization is plain lexicographic so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product

from .errors import GraphValidationError, InvalidLabelingError
from .sets import APSet, IntegerSet, sumset

__all__ = [
    "GraphViolation",
    "Graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "LabeledGraph",
]


@dataclass(frozen=True)
class GraphViolation:
    # empty-graph | malformed-edge | self-loop | duplicate-edge |
    # duplicate-vertex | non-string-vertex | isolated-vertex | dangling-endpoint
    kind: str
    element: object

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


def _scan(vertices, edges) -> tuple[list[GraphViolation], dict]:
    """One pass over the raw data: its violations and the adjacency sets of its valid edges.

    Only string ids key the adjacency dict. Any other id is a violation
    itself, kept in a plain list where an edge end is found again by
    equality: its edges report no dangling end, and their string ends get
    the neighbour None (the graph is rejected anyway), so none is isolated.
    Reports always name the ids as given.
    """
    violations = []
    adjacency = {}
    others = []  # the non-string vertex ids, hashable or not
    for v in vertices:
        if isinstance(v, str):
            if v in adjacency:
                violations.append(GraphViolation("duplicate-vertex", v))
            else:
                adjacency[v] = set()
        elif v in others:
            violations.append(GraphViolation("duplicate-vertex", v))
        else:
            others.append(v)
            violations.append(GraphViolation("non-string-vertex", v))
    if not adjacency and not others:
        violations.append(GraphViolation("empty-graph", ()))

    for edge in edges:
        if not (isinstance(edge, (tuple, list)) and len(edge) == 2):
            violations.append(GraphViolation("malformed-edge", edge))
            continue
        u, v = edge
        if u == v:
            violations.append(GraphViolation("self-loop", (u, v)))
            continue
        try:
            nu, nv = adjacency[u], adjacency[v]
        except (KeyError, TypeError):  # an end that is not a string vertex
            known = [x in adjacency if isinstance(x, str) else x in others for x in (u, v)]
            violations += [GraphViolation("dangling-endpoint", (u, v))] * known.count(False)
            if all(known):  # a non-string vertex's edge: its string end is not isolated
                for x in (u, v):
                    if isinstance(x, str):
                        adjacency[x].add(None)
            continue
        if v in nu:
            violations.append(GraphViolation("duplicate-edge", _canonical_edge(u, v)))
        else:
            nu.add(v)
            nv.add(u)

    isolated = sorted([v for v, ns in adjacency.items() if not ns])
    violations += [GraphViolation("isolated-vertex", v) for v in isolated]
    return violations, adjacency


class _Facts:
    """Facts derived from an immutable value, computed on first use by ``_fact``."""

    __slots__ = ("_cache",)

    def _fact(self, compute, *args):
        """``compute(self, *args)``, run on first use and cached under ``compute``.

        Each ``compute`` keeps its result for the last arguments asked for:
        other arguments recompute and replace it. Unhashable arguments (a
        list edge) could change in place, so their result is not kept, nor
        that of a ``compute`` that raises. Most facts take no argument, and
        their lookup hashes nothing but ``compute``.
        """
        if args:
            try:
                hash(args)
            except TypeError:
                return compute(self, *args)
        entry = self._cache.get(compute)
        if entry is None or entry[0] != args:
            entry = self._cache[compute] = (args, compute(self, *args))
        return entry[1]


class Graph(_Facts):
    """An immutable simple graph with canonical (lexicographic) ordering.

    Construction validates the data and raises GraphValidationError whose
    ``violations`` lists every problem found in one scan: no vertices at
    all, duplicate vertex ids, ids that are not strings (``non-string-vertex``,
    once per such vertex, hashable or not; it is never also isolated, nor
    its edges duplicates), edges that are not a tuple or list of two ends
    (``malformed-edge``: a string, a set, one end or three), self-loops,
    duplicate edges (in either orientation), endpoints naming no vertex, and
    vertices left without any valid incident edge. Edges are stored as
    ordered pairs (u, v) with u < v.

    Facts that depend on the graph alone are computed on first use and kept
    with it: the id, the breadth-first order of each component, and each
    transform's output structure (``iasi.transforms``), so that the labelings
    of one graph share them. A transform keeps only the structure for its
    last argument, so a graph holds at most five output structures (each
    with its own facts), however many edges are contracted in turn.
    """

    __slots__ = ("vertices", "edges", "_adjacency")

    def __init__(self, vertices, edges):
        violations, adjacency = _scan(vertices, edges)
        if violations:
            raise GraphValidationError(violations)
        self.vertices = tuple(sorted(adjacency))
        self._adjacency = {v: tuple(sorted(adjacency[v])) for v in self.vertices}
        # sorted already: u runs over sorted vertices, v over u's sorted neighbours
        self.edges = tuple([(u, v) for u in self.vertices for v in self._adjacency[u] if u < v])
        self._cache = {}

    def neighbors(self, v) -> tuple:
        return self._adjacency[v]

    def degree(self, v) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u, v) -> bool:
        return v in self._adjacency.get(u, ())

    def is_connected(self) -> bool:
        return len(self._components()) == 1

    def _components(self) -> tuple:
        """Each component's breadth-first order (``_breadth_first``), as tuples."""
        return self._fact(_breadth_first)

    def graph_id(self) -> str:
        """Canonical edge-list string; no vertex escapes it (none isolated)."""
        return self._fact(_graph_id)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, edges={self.graph_id()!r})"


def _breadth_first(graph: Graph) -> tuple:
    """Each component's breadth-first order, from its first vertex in ``graph.vertices``."""
    seen = set()
    components = []
    for root in graph.vertices:
        if root in seen:
            continue
        seen.add(root)
        order = [root]
        for cur in order:
            for nb in graph._adjacency[cur]:
                if nb not in seen:
                    seen.add(nb)
                    order.append(nb)
        components.append(tuple(order))
    return tuple(components)


def _graph_id(graph: Graph) -> str:
    return ",".join(f"{u}-{v}" for u, v in graph.edges)


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


class LabeledGraph(_Facts):
    """A graph together with a total set-valued vertex labeling.

    Edge labels are always the induced sumsets of the endpoint labels and
    are computed here once; there is no way to store anything else. The
    labeling need not be injective -- deciding that is the verifier's job.
    Labels given for names that are not vertices of the graph are ignored.
    ``vertex_labels`` and ``edge_labels`` are filled in the graph's canonical
    vertex and edge order, so iterating them needs no re-sort, and
    ``edge_labels`` is keyed by the tuples of ``graph.edges`` themselves,
    so a label costs no new key. A label given as an ``IntegerSet`` or an
    ``APSet`` is kept as it is; any other is checked by the ``IntegerSet``
    constructor. Facts derived from the labels (the injectivity report, the
    classification report) are computed on first use by ``_fact`` and kept
    in ``_cache``.
    """

    __slots__ = ("graph", "vertex_labels", "edge_labels")

    def __init__(self, graph: Graph, vertex_labels):
        labels = {}
        for v in graph.vertices:
            if v not in vertex_labels:
                raise InvalidLabelingError(f"no label for vertex {v!r}")
            label = vertex_labels[v]
            if type(label) is not APSet:  # an APSet is a checked, nonempty label
                label = IntegerSet(label)
                if not label:
                    raise InvalidLabelingError(f"empty label for vertex {v!r}")
            labels[v] = label
        self.graph = graph
        self.vertex_labels = labels
        self.edge_labels = {e: sumset(labels[e[0]], labels[e[1]]) for e in graph.edges}
        self._cache = {}

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.graph == other.graph and self.vertex_labels == other.vertex_labels

    def __hash__(self):
        return hash((self.graph, tuple(self.vertex_labels.items())))

    def __repr__(self):
        return f"LabeledGraph({self.graph!r})"
