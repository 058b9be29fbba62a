"""Label-preserving graph operations.

Each operation takes an arithmetic set-indexed graph, rewires the structure,
and transfers labels the natural way: merged or inserted points inherit the
edge label (the endpoint sumset), line/total constructions reuse the labels
already present. The transfer can break injectivity, so every result is
re-verified and a LabelCollisionError with the witnessing pair is raised
instead of returning a silently broken labeling.

New points need names: a contraction of (u, v) is called "(u*v)", a
subdivision point "(u~v)", a line/total point for edge (u, v) "(u,v)";
apostrophes are appended on the rare clash with an existing name.

Each transform is one ``_transferred`` call: it checks that the labeling is
an arithmetic IASI, reads its builder's output structure from the input
graph's facts, and transfers and verifies the labels. A builder
``(graph, *args) -> (output graph, {edge: new point})`` checks its arguments
and reads the input graph alone, so ``Graph._fact`` runs it once per graph
and argument.
"""

from __future__ import annotations

from itertools import combinations

from .classify import _verified, classify_arithmetic
from .errors import NotArithmeticError
from .graphs import Graph, LabeledGraph, _canonical_edge

__all__ = [
    "contract_edge",
    "reduce_topologically",
    "subdivide",
    "to_line_graph",
    "to_total_graph",
]


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def _edge_points(graph: Graph, taken) -> tuple[dict, list]:
    """Name a new point "(u,v)" per edge, avoiding ``taken``; join the points
    of each two edges at a shared endpoint (two distinct edges share at most one)."""
    names = {}
    taken = set(taken)
    for u, v in graph.edges:
        names[(u, v)] = name = _fresh_name(f"({u},{v})", taken)
        taken.add(name)
    adjacent = [
        (names[_canonical_edge(x, a)], names[_canonical_edge(x, b)])
        for x in graph.vertices
        for a, b in combinations(graph.neighbors(x), 2)
    ]
    return names, adjacent


def _require_edge(graph: Graph, edge) -> tuple:
    """``edge`` as a canonical edge of ``graph``; anything else is ValueError."""
    if not (
        isinstance(edge, (tuple, list))
        and len(edge) == 2
        and all(isinstance(x, str) for x in edge)
    ):
        raise ValueError(f"no such edge: {edge!r}")
    e = _canonical_edge(*edge)
    if not graph.has_edge(*e):
        raise ValueError(f"no such edge: {e}")
    return e


def _transferred(lg: LabeledGraph, op: str, build, *args) -> LabeledGraph:
    """The transform ``op`` of ``lg``, which must be an arithmetic IASI (checked
    before ``build`` checks ``args``): every vertex keeps its label, and the
    new point for edge e takes e's label."""
    report = classify_arithmetic(lg)
    if not report.is_iasi:
        raise NotArithmeticError(f"{op} requires an injective labeling: {report.collision}")
    if not report.arithmetic:
        raise NotArithmeticError(f"{op} requires an arithmetic labeling")
    graph, names = lg.graph._fact(build, *args)
    labels = dict(lg.vertex_labels)
    for e, name in names.items():
        labels[name] = lg.edge_labels[e]
    return _verified(LabeledGraph(graph, labels))


def _contracted(graph: Graph, edge) -> tuple:
    u, v = edge = _require_edge(graph, edge)
    merged = _fresh_name(f"({u}*{v})", set(graph.vertices) - {u, v})
    vertices = [x for x in graph.vertices if x not in (u, v)] + [merged]
    new_edges = set()
    for x, y in graph.edges:
        if (x, y) == (u, v):
            continue
        x2 = merged if x in (u, v) else x
        y2 = merged if y in (u, v) else y
        new_edges.add(_canonical_edge(x2, y2))
    return Graph(vertices, new_edges), {edge: merged}


def contract_edge(lg: LabeledGraph, edge) -> LabeledGraph:
    """Contract an edge; the merged vertex inherits the edge's label.

    Parallel edges arising from common neighbors collapse to one. If the
    contraction strands a vertex without edges (contracting the only edge),
    the result violates the no-isolated-vertices invariant and is rejected.
    """
    return _transferred(lg, "contract_edge", _contracted, edge)


def _reduction_problem(graph: Graph, vertex) -> str | None:
    """Why ``vertex`` cannot be reduced topologically, or None if it can."""
    if not (isinstance(vertex, str) and vertex in graph._adjacency):
        return f"no such vertex: {vertex!r}"
    if graph.degree(vertex) != 2:
        return f"vertex {vertex!r} has degree {graph.degree(vertex)}, need exactly 2"
    u, w = graph.neighbors(vertex)
    if graph.has_edge(u, w):
        return f"neighbors {u!r} and {w!r} are adjacent; reduction undefined"
    return None


def _reduced(graph: Graph, vertex) -> tuple:
    problem = _reduction_problem(graph, vertex)
    if problem:
        raise ValueError(problem)
    u, w = graph.neighbors(vertex)
    vertices = [x for x in graph.vertices if x != vertex]
    edges = [e for e in graph.edges if vertex not in e] + [(u, w)]
    return Graph(vertices, edges), {}


def reduce_topologically(lg: LabeledGraph, vertex: str) -> LabeledGraph:
    """Remove a degree-2 vertex with non-adjacent neighbors; bridge them.

    The inverse of subdivide: labels stay put and the new bridging edge gets
    the sumset of the reconnected endpoints.
    """
    return _transferred(lg, "reduce_topologically", _reduced, vertex)


def _subdivided(graph: Graph, edge) -> tuple:
    u, v = edge = _require_edge(graph, edge)
    mid = _fresh_name(f"({u}~{v})", graph._adjacency)
    edges = [e for e in graph.edges if e != edge] + [(u, mid), (mid, v)]
    return Graph(list(graph.vertices) + [mid], edges), {edge: mid}


def subdivide(lg: LabeledGraph, edge) -> LabeledGraph:
    """Replace an edge by a two-edge path; the new midpoint gets the edge label."""
    return _transferred(lg, "subdivide", _subdivided, edge)


def _line(graph: Graph) -> tuple:
    if len(graph.edges) < 2:
        raise ValueError("line graph needs at least two edges")
    names, edges = _edge_points(graph, ())
    return Graph(list(names.values()), edges), names


def to_line_graph(lg: LabeledGraph) -> LabeledGraph:
    """The line graph, each edge becoming a vertex carrying its old label.

    Needs at least two edges (a lone edge would leave a single isolated
    point). Two new vertices are adjacent when the old edges shared an
    endpoint.
    """
    return _transferred(lg, "to_line_graph", _line)


def _total(graph: Graph) -> tuple:
    names, adjacent = _edge_points(graph, graph.vertices)
    edges = list(graph.edges) + adjacent
    for u, v in graph.edges:
        edges += [(u, names[(u, v)]), (v, names[(u, v)])]
    return Graph(list(graph.vertices) + list(names.values()), edges), names


def to_total_graph(lg: LabeledGraph) -> LabeledGraph:
    """Vertices and edges together, adjacent whenever incident or adjacent.

    Old vertices keep their labels; edge points carry the edge labels. All
    of these are vertex labels now, so a vertex label equal to an edge label
    becomes a collision here even though the original labeling was fine.
    """
    return _transferred(lg, "to_total_graph", _total)
