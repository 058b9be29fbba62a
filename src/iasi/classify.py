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
from operator import attrgetter

from .errors import DisconnectedGraphError, LabelCollisionError, NotArithmeticError
from .graphs import LabeledGraph
from .sets import APSet, _bounded_multiple, _difference

__all__ = [
    "Collision",
    "InjectivityReport",
    "verify_iasi",
    "EdgeClassification",
    "classify_edges",
    "ClassificationReport",
    "classify_arithmetic",
    "MultiplierViolation",
    "MultiplierReport",
    "check_multiplier_condition",
    "GcdReport",
    "check_gcd_invariant",
]

# Vertex labels shorter than this cannot count as arithmetic; progressions
# of one or two elements are degenerate ("sub-minimal") cases.
MIN_ARITHMETIC_LENGTH = 3

_PLURALS = {"vertex": "vertices", "edge": "edges"}

_PROGRESSIONS = frozenset({APSet})
_length = attrgetter("length")


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


def _first_collision(labels: dict, kind):
    """The first repeated label of ``labels`` in its (canonical) order, or None.

    One hash pass over the labels settles the common case, no repeat; only
    a repeat walks them again, in order, for the first collision.
    """
    if len(set(labels.values())) == len(labels):
        return None
    seen = {}
    for name, label in labels.items():
        if label in seen:
            return Collision(kind, seen[label], name, tuple(label))
        seen[label] = name
    return None


def verify_iasi(lg: LabeledGraph) -> InjectivityReport:
    """Decide IASI-ness: vertex labels injective and edge labels injective.

    The first collision in canonical order is returned as the witness. The
    labels are scanned once per labeled graph; later calls read the report.
    """
    return lg._fact(_verify)


def _verified(lg: LabeledGraph) -> LabeledGraph:
    """``lg`` itself when it is an IASI; otherwise LabelCollisionError with the witness."""
    report = verify_iasi(lg)
    if not report.is_iasi:
        raise LabelCollisionError(report.collision)
    return lg


def _verify(lg: LabeledGraph) -> InjectivityReport:
    collision = _first_collision(lg.vertex_labels, "vertex")
    if collision is None:
        collision = _first_collision(lg.edge_labels, "edge")
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


@dataclass(frozen=True)
class ClassificationReport:
    """The labeling-level classes and the witnesses that explain them.

    ``arithmetic`` = all vertex labels are progressions of >= 3 elements and
    all edge labels are progressions. The two semi-arithmetic readings keep
    the vertex half but lose the edge half: ``semi_arithmetic`` when at
    least one edge label is not a progression, ``strict_semi_arithmetic``
    when none is. A singleton edge label counts as a progression.
    ``uniform_k`` and ``vertex_uniform_l`` are the common edge and vertex
    label sizes, None when the sizes differ.

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


def classify_arithmetic(lg: LabeledGraph) -> ClassificationReport:
    """The classification report, computed once per labeled graph."""
    return lg._fact(_classify)


def _sizes(labels, types: set) -> set:
    """The distinct sizes of ``labels``, whose types are ``types``: read from
    the ``length`` slot when every label is an APSet, else by ``len``."""
    return set(map(_length if types == _PROGRESSIONS else len, labels))


def _classify(lg: LabeledGraph) -> ClassificationReport:
    injectivity = verify_iasi(lg)
    vertex_labels, edge_labels = lg.vertex_labels.values(), lg.edge_labels.values()
    # APSet exactly for a progression
    vertex_types, edge_types = set(map(type, vertex_labels)), set(map(type, edge_labels))
    edge_sizes, vertex_sizes = _sizes(edge_labels, edge_types), _sizes(vertex_labels, vertex_types)
    sub_minimal = ()
    if min(vertex_sizes) < MIN_ARITHMETIC_LENGTH:
        sub_minimal = tuple(
            v for v, s in lg.vertex_labels.items() if len(s) < MIN_ARITHMETIC_LENGTH
        )
    vertex_arithmetic = not sub_minimal and vertex_types == _PROGRESSIONS
    edge_arithmetic = edge_types == _PROGRESSIONS
    return ClassificationReport(
        is_iasi=injectivity.is_iasi,
        collision=injectivity.collision,
        uniform_k=edge_sizes.pop() if len(edge_sizes) == 1 else None,
        vertex_uniform_l=vertex_sizes.pop() if len(vertex_sizes) == 1 else None,
        vertex_arithmetic=vertex_arithmetic,
        edge_arithmetic=edge_arithmetic,
        arithmetic=vertex_arithmetic and edge_arithmetic,
        semi_arithmetic=vertex_arithmetic and not edge_arithmetic,
        strict_semi_arithmetic=vertex_arithmetic and APSet not in edge_types,
        sub_minimal_vertices=sub_minimal,
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
    elements: an APSet that is not a singleton, whose difference slot is
    read. Otherwise NotArithmeticError names the first label without one.
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


def _vertex_indices(lg: LabeledGraph) -> dict:
    """Each vertex label's difference, read once per labeled graph."""
    return _indices(lg.vertex_labels, "vertex")


def check_multiplier_condition(lg: LabeledGraph) -> MultiplierReport:
    """Check every edge's difference ratio against its cardinality bound.

    For an edge whose endpoint differences are d_low <= d_high, the edge
    label is a progression exactly when d_high = k * d_low for an integer
    1 <= k <= |label of the d_low endpoint|. Requires every vertex label to
    have a deterministic index.
    """
    diffs = lg._fact(_vertex_indices)
    labels = lg.vertex_labels
    violations = []
    for u, v in lg.graph.edges:
        low, high = diffs[u], diffs[v]
        low_vertex = u  # the lower endpoint, u on a tie
        if high < low:
            low, high, low_vertex = high, low, v
        bound = labels[low_vertex].length  # every label an APSet, by _indices
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

    ``ok`` needs all three. Vertex gcd == edge gcd always holds: each edge
    difference is its lower endpoint's and divides the higher. "== least"
    holds exactly when every difference is a multiple of the least one:
    true of every constructed labeling, not of P3 with differences 3, 6, 2
    (both gcds 1, least 2). The graph must be connected.
    """
    if not lg.graph.is_connected():
        raise DisconnectedGraphError("gcd invariant needs a connected graph")
    vertex_diffs = lg._fact(_vertex_indices).values()
    edge_diffs = _indices(lg.edge_labels, "edge").values()
    vg = math.gcd(*vertex_diffs)
    eg = math.gcd(*edge_diffs)
    mn = min(vertex_diffs)
    return GcdReport(ok=vg == eg == mn, vertex_gcd=vg, edge_gcd=eg, min_vertex_difference=mn)
