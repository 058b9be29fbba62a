"""Constructive arithmetic labelings.

Every graph admits one: walk it breadth-first, give each newly visited
vertex a progression whose common difference is a bounded multiple of every
already-visited neighbor's difference, and spread first terms far enough
apart that no two vertex labels and no two edge labels can coincide.

First terms come from a sequence with pairwise-distinct sums scaled by a
stride wider than twice the largest label span: distinct offsets separate
vertex labels, distinct offset sums separate edge labels, and the stride
keeps whole labels disjoint. Up to 20 vertices the sequence is the greedy
one (1, 2, 3, 5, 8, 13, ...), read from a fixed table of its first 20
terms; above 20 it is the Erdos-Turan Sidon set 2pk + (k^2 mod p), built
in linear time. The two differ, so the offsets of a 21-vertex layout do
not extend those of a 20-vertex one.

Multipliers compound along a path, so differences are held within one
budget, fixed before the traversal, that keeps every label element and
every edge sum within 64 bits; a multiplier that would leave it is cut to
1 and reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

from .classify import MIN_ARITHMETIC_LENGTH, check_multiplier_condition
from .graphs import Graph, LabeledGraph, complete_graph
from .sets import U64_MAX, _bounded_multiple, _is_int, _progression

__all__ = [
    "ConstructionParams",
    "ConstructionResult",
    "construct_arbitrary",
    "construct_complete",
    "distinct_sum_sequence",
]

_POLICIES = ("fixed", "random", "maximal")

# The greedy sequence's first 20 terms, each the least integer whose sums
# with every earlier term are new; the catalog's bytes depend on them.
_GREEDY = (1, 2, 3, 5, 8, 13, 21, 30, 39, 53, 74, 95, 128, 152, 182, 212, 258, 316, 374, 413)


def distinct_sum_sequence(count: int) -> list[int]:
    """``count`` strictly increasing terms whose pairwise sums are all distinct.

    Up to 20 terms: the greedy sequence from 1, where a candidate joins
    when every sum with an earlier term is new (1, 2, 3, 5, 8, 13, 21, ...),
    read from a fixed table. Above that: the Erdos-Turan Sidon set
    2pk + (k^2 mod p) for k = 0..count-1 with p the smallest prime >= count
    (J. London Math. Soc. 16, 1941), in linear time. The two are different
    sequences, so a longer result need not extend a shorter one across the
    switch.
    """
    if not _is_int(count):
        raise TypeError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if count > len(_GREEDY):
        p = _next_prime(count)
        return [2 * p * k + (k * k) % p for k in range(count)]
    return list(_GREEDY[:count])


def _next_prime(n: int) -> int:
    """The smallest prime >= n (n >= 2)."""
    while any(n % q == 0 for q in range(2, isqrt(n) + 1)):
        n += 1
    return n


@dataclass(frozen=True)
class ConstructionParams:
    """Knobs for construct_arbitrary; every number must be an int, not a bool.

    multiplier_policy picks the per-edge difference ratio k relative to the
    visited neighbor: "fixed" pins k=1 (uniform differences), "random" draws
    uniformly from [1, bound], "maximal" takes the bound itself; the bound
    is the smallest label cardinality among same-difference visited
    neighbors. Label sizes are drawn from label_size_range.
    """

    base_difference: int = 1
    label_size_range: tuple[int, int] = (3, 3)
    multiplier_policy: str = "fixed"
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.base_difference) or self.base_difference < 1:
            raise ValueError(
                f"base_difference must be an integer >= 1, got {self.base_difference!r}"
            )
        try:
            lo, hi = self.label_size_range
        except (TypeError, ValueError):  # not a pair: fails the check below
            lo = hi = None
        if not (_is_int(lo) and _is_int(hi) and MIN_ARITHMETIC_LENGTH <= lo <= hi):
            raise ValueError(
                f"label_size_range must be integers with {MIN_ARITHMETIC_LENGTH} <= lo <= hi, "
                f"got {self.label_size_range!r}"
            )
        if self.multiplier_policy not in _POLICIES:
            raise ValueError(
                f"unknown multiplier policy {self.multiplier_policy!r}; choose from {_POLICIES}"
            )
        if not _is_int(self.seed) or not 0 <= self.seed <= U64_MAX:
            raise ValueError(f"seed must be an integer in [0, 2**64 - 1], got {self.seed!r}")


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed labeling plus what happened on the way.

    fallback_vertex names the vertex whose multi-neighbor difference
    constraints could not all be met, after which the whole graph was
    relabeled with the uniform base difference (which always works);
    fallback_applied says whether that happened. capped lists, in
    breadth-first order, the vertices whose multiplier the difference budget
    cut to 1 (none after a fallback, which resets every difference). The
    breadth-first order itself is the order of the labels' ``first`` terms.
    """

    labeled_graph: LabeledGraph
    fallback_vertex: str | None = None
    capped: tuple = ()

    @property
    def fallback_applied(self) -> bool:
        return self.fallback_vertex is not None


def _progression_labels(order, differences: dict, sizes: dict, offsets: list) -> dict:
    """Vertex v's label: ``sizes[v]`` terms with difference ``differences[v]``.

    The i-th vertex of ``order`` starts at ``offsets[i]``, the i-th term of
    ``distinct_sum_sequence(len(order))``, times a stride wider than twice
    the largest label span, which keeps every vertex label and every edge
    label distinct. This is the one layout every constructor uses.
    """
    stride = 2 * max((sizes[v] - 1) * differences[v] for v in order) + 1
    return {v: _progression(f * stride, differences[v], sizes[v]) for v, f in zip(order, offsets)}


def _difference_budget(largest_offset: int, max_size: int) -> int:
    """The largest common difference that keeps every label element <= U64_MAX.

    Every element of a vertex or edge label lies below (2F + 1) * stride,
    where F is ``largest_offset``, the largest distinct-sum term of the
    layout, and stride = 2 * max span + 1, a span being at most
    (max_size - 1) * difference.
    """
    widest_stride = (U64_MAX + 1) // (2 * largest_offset + 1)
    return (widest_stride - 1) // 2 // (max_size - 1)


def _pick_multiplier(policy: str, rng: random.Random | None, bound: int) -> int:
    if policy == "fixed":
        return 1
    if policy == "maximal":
        return bound
    return rng.choice(range(1, bound + 1))  # the draw of rng.randint(1, bound)


def construct_arbitrary(graph: Graph, params: ConstructionParams) -> ConstructionResult:
    """Label any graph arithmetically, component by component.

    Differences: the first vertex of a component gets the base difference;
    a later vertex looks at its already-visited neighbors. If they share a
    single difference d, the new difference is k*d with k from the policy,
    bounded by the smallest of their label cardinalities. If they carry
    several differences, the largest is taken when it is a bounded multiple
    of each of them; otherwise the whole graph falls back to the uniform
    base difference, which satisfies every edge with k=1.

    Multipliers compound along a path, so a k*d beyond the difference
    budget (the largest difference whose labels and edge sums all fit in
    64 bits) is replaced by d, k=1, and the vertex is listed in ``capped``.
    The rng is drawn from as if nothing were capped, so a labeling that hits
    no cap is the same as without one.

    With a base difference within the budget the result is always an
    arithmetic set-indexer. The only errors are the input checks of Graph
    and ConstructionParams, and LabelOverflowError for a base difference
    beyond the budget. The labels' ``first`` terms increase strictly in
    breadth-first order, so sorting the vertices by them recovers it.
    """
    # breadth-first from the smallest vertex of each component
    order = [v for comp in graph._components() for v in comp]
    lo, hi = params.label_size_range
    # the rng exists only to draw; each draw is the one rng.randint makes
    rng = None
    if lo != hi or params.multiplier_policy == "random":
        rng = random.Random(params.seed)
    if lo == hi:
        sizes = dict.fromkeys(order, lo)
    else:
        choice, span = rng.choice, range(lo, hi + 1)
        sizes = {v: choice(span) for v in order}
    offsets = distinct_sum_sequence(len(order))
    budget = _difference_budget(offsets[-1], max(sizes.values()))

    differences: dict = {}
    capped = []
    fallback_vertex = None
    for v in order:
        visited = [u for u in graph.neighbors(v) if u in differences]
        if not visited:
            differences[v] = params.base_difference
            continue
        diffs = {differences[u] for u in visited}
        if len(diffs) == 1:
            d = diffs.pop()
            bound = min(sizes[u] for u in visited)
            k = _pick_multiplier(params.multiplier_policy, rng, bound)
            if k > 1 and k * d > budget:
                k = 1
                capped.append(v)
            differences[v] = k * d
        else:
            top = max(diffs)
            if all(_bounded_multiple(differences[u], top, sizes[u]) for u in visited):
                differences[v] = top
            else:
                fallback_vertex = v
                break
    if fallback_vertex is not None:
        differences = {v: params.base_difference for v in order}
        capped = []

    labels = _progression_labels(order, differences, sizes, offsets)
    return ConstructionResult(LabeledGraph(graph, labels), fallback_vertex, tuple(capped))


def construct_complete(differences, sizes=3) -> LabeledGraph:
    """Arithmetic labeling of the complete graph, one difference per vertex.

    ``differences`` and ``sizes`` (one size, or one per vertex) go in vertex
    order; a run of equal differences is a band. The labeling is arithmetic
    exactly when every vertex pair meets the multiplier condition, so a
    ValueError names the first violation ``check_multiplier_condition``
    finds: its edge, multiplier and bound. One label size l admits
    min(n, floor(log2 l) + 1) distinct differences, such as 1, 2, 4 at l = 4.
    The layout is construct_arbitrary's; one beyond 64 bits raises
    LabelOverflowError, before the condition is checked.
    """
    graph = complete_graph(len(differences))
    if not all(_is_int(d) and d >= 1 for d in differences):
        raise ValueError(f"differences must all be integers >= 1, got {differences!r}")
    vertices = graph.vertices
    sizes = (sizes,) * len(vertices) if isinstance(sizes, int) else tuple(sizes)
    if len(sizes) != len(vertices):
        raise ValueError(f"expected {len(vertices)} label sizes, got {len(sizes)}")
    if not all(_is_int(s) and s >= MIN_ARITHMETIC_LENGTH for s in sizes):
        raise ValueError(f"label sizes must all be integers >= {MIN_ARITHMETIC_LENGTH}")

    labels = _progression_labels(
        vertices,
        dict(zip(vertices, differences)),
        dict(zip(vertices, sizes)),
        distinct_sum_sequence(len(vertices)),
    )
    lg = LabeledGraph(graph, labels)
    report = check_multiplier_condition(lg)
    if not report.ok:
        raise ValueError(f"not an arithmetic labeling: {report.violations[0]}")
    return lg
