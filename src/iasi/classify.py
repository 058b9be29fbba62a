"""Verification and classification of set-valued labelings.

A labeling is an integer additive set-indexer (IASI) when the vertex labels
are pairwise distinct and the induced edge labels are pairwise distinct. On
top of that, edges are graded by cardinality (weak = the edge label is no
bigger than its larger endpoint, strong = it reaches the product bound) and
the labeling is graded by progression structure (vertex-/edge-/fully
arithmetic, and semi-arithmetic in both readings: some edge label is not a
progression, or none is). ``classify_edges`` grades the edges;
``classify_arithmetic`` grades the labeling, in one report computed once
per labeled graph. Classification never refuses a non-injective labeling;
it just flags it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DisconnectedGraphError, LabelCollisionError, NotArithmeticError
from .graphs import LabeledGraph
from .sets import APSet, _bounded_multiple, _difference

__all__ = [
    "Collision",
    "InjectivityReport",
    "verify_iasi",
    "EdgeClassification",
    "classify_edges",
    "check_uniformity",
    "ClassificationReport",
    "classify_arithmetic",
    "MultiplierViolation",
    "MultiplierReport",
    "check_multiplier_condition",
    "GcdReport",
    "check_gcd_invariant",
    "check_singleton_endpoint_rule",
]

# Vertex labels shorter than this cannot count as arithmetic; progressions
# of one or two elements are degenerate ("sub-minimal") cases.
MIN_ARITHMETIC_LENGTH = 3

_PLURALS = {"vertex": "vertices", "edge": "edges"}


def _braced(label) -> str:
    """A label as a brace-enclosed list of its elements in ascending order."""
    return "{%s}" % ", ".join(str(e) for e in sorted(label))


@dataclass(frozen=True)
class Collision:
    """Two distinct elements sharing one label."""

    kind: str  # "vertex" | "edge"
    first: object
    second: object
    label: tuple

    def __str__(self):
        return (
            f"{_PLURALS[self.kind]} {self.first!r} and {self.second!r} "
            f"share label {_braced(self.label)}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "first": self.first,
            "second": self.second,
            "label": list(self.label),
        }


@dataclass(frozen=True)
class InjectivityReport:
    is_iasi: bool
    collision: Collision | None


def _first_collision(items, kind):
    seen = {}
    for name, label in items:
        if label in seen:
            return Collision(kind, seen[label], name, tuple(label))
        seen[label] = name
    return None


def verify_iasi(lg: LabeledGraph) -> InjectivityReport:
    """Decide IASI-ness: vertex labels injective and edge labels injective.

    The first collision in canonical order is returned as the witness. The
    labels are scanned once per labeled graph; later calls read the report.
    """
    return lg._fact("injectivity", _verify)


def _verified(lg: LabeledGraph) -> LabeledGraph:
    """``lg`` itself when it is an IASI; otherwise LabelCollisionError with the witness."""
    report = verify_iasi(lg)
    if not report.is_iasi:
        raise LabelCollisionError(report.collision)
    return lg


def _verify(lg: LabeledGraph) -> InjectivityReport:
    collision = _first_collision(lg.vertex_labels.items(), "vertex")
    if collision is None:
        collision = _first_collision(lg.edge_labels.items(), "edge")
    return InjectivityReport(is_iasi=collision is None, collision=collision)


def _non_progression_edges(lg: LabeledGraph) -> list:
    """Edges whose label is not a progression (singletons are), in canonical order."""
    return [e for e, s in lg.edge_labels.items() if type(s) is not APSet]


@dataclass(frozen=True)
class EdgeClassification:
    weak: bool
    strong: bool
    indexing_number: int


def classify_edges(lg: LabeledGraph) -> dict:
    """Per-edge weak/strong flags and edge label cardinality.

    weak: |f(u)+f(v)| == max(|f(u)|, |f(v)|); strong: == |f(u)|*|f(v)|.
    Both can hold at once (singleton against anything).
    """
    out = {}
    for (u, v), label in lg.edge_labels.items():
        m, n = len(lg.vertex_labels[u]), len(lg.vertex_labels[v])
        size = len(label)
        out[(u, v)] = EdgeClassification(
            weak=size == max(m, n), strong=size == m * n, indexing_number=size
        )
    return out


def check_uniformity(lg: LabeledGraph) -> tuple[int | None, int | None]:
    """(k, l): the common edge label size and common vertex label size, if any."""
    edge_sizes = {len(s) for s in lg.edge_labels.values()}
    vertex_sizes = {len(s) for s in lg.vertex_labels.values()}
    k = edge_sizes.pop() if len(edge_sizes) == 1 else None
    l = vertex_sizes.pop() if len(vertex_sizes) == 1 else None
    return k, l


@dataclass(frozen=True)
class ClassificationReport:
    """The labeling-level classes and the witnesses that explain them.

    ``arithmetic`` = all vertex labels are progressions of >= 3 elements and
    all edge labels are progressions. The two semi-arithmetic readings keep
    the vertex half but lose the edge half: ``semi_arithmetic`` when at
    least one edge label is not a progression, ``strict_semi_arithmetic``
    when none is. A singleton edge label counts as a progression.

    Non-injective labelings are still classified; ``is_iasi`` is the flag to
    check before trusting anything else. Per-edge weak/strong grades are
    ``classify_edges``'s.
    """

    is_iasi: bool
    collision: Collision | None
    uniform_k: int | None
    vertex_uniform_l: int | None
    vertex_arithmetic: bool
    edge_arithmetic: bool
    arithmetic: bool
    semi_arithmetic: bool
    strict_semi_arithmetic: bool
    sub_minimal_vertices: tuple


def _sub_minimal(lg: LabeledGraph) -> tuple:
    return tuple(
        v for v, s in lg.vertex_labels.items() if len(s) < MIN_ARITHMETIC_LENGTH
    )


def classify_arithmetic(lg: LabeledGraph) -> ClassificationReport:
    """The classification report, computed once per labeled graph."""
    return lg._fact("classify", _classify)


def _classify(lg: LabeledGraph) -> ClassificationReport:
    injectivity = verify_iasi(lg)
    uniform_k, vertex_uniform_l = check_uniformity(lg)
    vertex_arithmetic = all(
        type(s) is APSet and len(s) >= MIN_ARITHMETIC_LENGTH for s in lg.vertex_labels.values()
    )
    non_ap_edges = _non_progression_edges(lg)
    edge_arithmetic = not non_ap_edges
    return ClassificationReport(
        is_iasi=injectivity.is_iasi,
        collision=injectivity.collision,
        uniform_k=uniform_k,
        vertex_uniform_l=vertex_uniform_l,
        vertex_arithmetic=vertex_arithmetic,
        edge_arithmetic=edge_arithmetic,
        arithmetic=vertex_arithmetic and edge_arithmetic,
        semi_arithmetic=vertex_arithmetic and not edge_arithmetic,
        strict_semi_arithmetic=vertex_arithmetic and len(non_ap_edges) == len(lg.edge_labels),
        sub_minimal_vertices=_sub_minimal(lg),
    )


@dataclass(frozen=True)
class MultiplierViolation:
    edge: tuple
    low_difference: int
    high_difference: int
    multiplier: int | None  # None when the differences are not multiples
    bound: int

    def __str__(self):
        if self.multiplier is None:
            return (
                f"edge {self.edge}: difference {self.high_difference} is not a "
                f"multiple of {self.low_difference}"
            )
        return (
            f"edge {self.edge}: multiplier {self.multiplier} exceeds the "
            f"cardinality bound {self.bound}"
        )


@dataclass(frozen=True)
class MultiplierReport:
    ok: bool
    violations: tuple


def _indices(labels: dict, kind: str) -> dict:
    """Each label's common difference (deterministic index).

    A label has one exactly when it is a progression of two or more
    elements; otherwise NotArithmeticError names the first label without one.
    """
    indices = {}
    for x, label in labels.items():
        d = _difference(label)
        if d is None:
            raise NotArithmeticError(
                f"{kind} {x!r} has no deterministic index: label {_braced(label)} is "
                "not a progression of two or more elements"
            )
        indices[x] = d
    return indices


def check_multiplier_condition(lg: LabeledGraph) -> MultiplierReport:
    """Check every edge's difference ratio against its cardinality bound.

    For an edge whose endpoint differences are d_low <= d_high, the edge
    label is a progression exactly when d_high = k * d_low for an integer
    1 <= k <= |label of the d_low endpoint|. Requires every vertex label to
    have a deterministic index.
    """
    diffs = _indices(lg.vertex_labels, "vertex")
    violations = []
    for u, v in lg.graph.edges:
        low_vertex, high_vertex = (u, v) if diffs[u] <= diffs[v] else (v, u)
        low, high = diffs[low_vertex], diffs[high_vertex]
        bound = len(lg.vertex_labels[low_vertex])
        if not _bounded_multiple(low, high, bound):
            k, rest = divmod(high, low)
            violations.append(MultiplierViolation((u, v), low, high, None if rest else k, bound))
    return MultiplierReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class GcdReport:
    ok: bool
    vertex_gcd: int
    edge_gcd: int
    min_vertex_difference: int


def check_gcd_invariant(lg: LabeledGraph) -> GcdReport:
    """gcd of vertex differences == gcd of edge differences == least vertex difference.

    The propagation argument behind this walks edges, so the graph must be
    connected.
    """
    if not lg.graph.is_connected():
        raise DisconnectedGraphError("gcd invariant needs a connected graph")
    vertex_diffs = _indices(lg.vertex_labels, "vertex").values()
    edge_diffs = _indices(lg.edge_labels, "edge").values()
    vg = math.gcd(*vertex_diffs)
    eg = math.gcd(*edge_diffs)
    mn = min(vertex_diffs)
    return GcdReport(ok=vg == eg == mn, vertex_gcd=vg, edge_gcd=eg, min_vertex_difference=mn)


def check_singleton_endpoint_rule(lg: LabeledGraph) -> bool:
    """True iff every weak edge has a singleton endpoint.

    |A+B| >= |A| + |B| - 1, so an edge label can only collapse to the larger
    endpoint cardinality when the smaller one is 1; this checks that no
    labeling claims otherwise.
    """
    for (u, v), cls in classify_edges(lg).items():
        if cls.weak:
            if min(len(lg.vertex_labels[u]), len(lg.vertex_labels[v])) != 1:
                return False
    return True
