"""The per-edge and per-label paths every labeled graph goes through.

Each is held to a plain reference built from nested loops and sorted
lists: every sequence operation of an ``APSet`` against the tuple of its
elements, ``sumset`` at the 64-bit boundary on each of its three paths,
``LabeledGraph``'s edge label keys, the first-repeat witness of
``verify_iasi`` and every field of ``classify_arithmetic``. Labels cost
their terms, not their elements, at any length.
"""

import copy
import pickle
import tracemalloc
from dataclasses import fields
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    APSet,
    Collision,
    ConstructionParams,
    Graph,
    IntegerSet,
    LabeledGraph,
    LabelOverflowError,
    U64_MAX,
    check_gcd_invariant,
    check_multiplier_condition,
    classify_arithmetic,
    construct_arbitrary,
    path_graph,
    sumset,
    verify_iasi,
)
from iasi import sets as sets_module
from reference import brute_sumset, is_progression


# ------------------------------------------------- an APSet read as a sequence


@st.composite
def progression_terms(draw):
    """(first, difference, length) of a progression within 64 bits, often at its top or bottom."""
    length = draw(st.integers(1, 40))
    d = None if length == 1 else draw(st.one_of(st.integers(1, 5), st.integers(1, 2**40)))
    room = U64_MAX - (length - 1) * (d or 1)
    first = draw(st.one_of(
        st.integers(0, min(room, 50)), st.integers(max(room - 50, 0), room), st.integers(0, room)
    ))
    return first, d, length


@settings(max_examples=300, deadline=None)
@given(progression_terms(), st.data())
def test_apset_reads_as_the_tuple_of_its_elements(terms, data):
    first, d, length = terms
    ap = APSet(first, d, length)
    ref = tuple(range(first, first + (length - 1) * (d or 1) + 1, d or 1))
    assert (ap.first, ap.difference, ap.length, ap.last) == (ref[0], d, len(ref), ref[-1])
    assert len(ap) == len(ref) and tuple(ap) == ref and list(iter(ap)) == list(ref)
    assert bool(ap) and repr(ap) == "IntegerSet({%s})" % ", ".join(map(str, ref))

    for i in range(-len(ref) - 2, len(ref) + 2):
        if -len(ref) <= i < len(ref):
            assert ap[i] == ref[i]
        else:
            with pytest.raises(IndexError):
                ap[i]
    bound = st.none() | st.integers(-len(ref) - 2, len(ref) + 2)
    step = st.none() | st.integers(-4, 4).filter(bool)
    cut = slice(data.draw(bound), data.draw(bound), data.draw(step))
    assert type(ap[cut]) is tuple and ap[cut] == ref[cut]

    near = [ref[0] - 1, ref[-1] + 1, *ref[:3], *ref[-3:], *(x + 1 for x in ref[:3])]
    for x in near + [data.draw(st.integers(0, U64_MAX)), float(ref[0]), str(ref[0]), None]:
        assert (x in ap) == (x in ref)

    twins = [pickle.loads(pickle.dumps(ap, protocol)) for protocol in range(2, 6)]
    for twin in twins + [copy.copy(ap), copy.deepcopy(ap)]:
        assert type(twin) is APSet and twin == ap and hash(twin) == hash(ap)
        assert tuple(twin) == ref
    with pytest.raises(AttributeError):
        ap.first = 0
    with pytest.raises(AttributeError):
        del ap.length


@st.composite
def top_pairs(draw):
    """Two raw labels whose largest sum is U64_MAX, or a little past it.

    Either is a progression (difference d, or k*d for k up to |A| + 2, or
    any other) of 1 to 8 terms, or a set of 3 to 6 that is mostly not one,
    so every sumset path is taken: the closed form, the singleton shift and
    the exact sum.
    """
    top = U64_MAX + draw(st.sampled_from([0, 0, 0, 1, -1, -17]))
    high_a = top // 2 + draw(st.integers(-50, 50))
    highs = (high_a, top - high_a)
    m = draw(st.integers(1, 8))
    d = draw(st.integers(1, 9))
    labels = []
    for high, length, step in zip(highs, (m, draw(st.integers(1, 8))), (d, None)):
        if step is None:
            step = draw(st.one_of(st.integers(1, m + 2).map(lambda k: k * d), st.integers(1, 40)))
        if draw(st.integers(0, 3)):
            labels.append([high - i * step for i in range(length)])
        else:
            below = draw(st.sets(st.integers(1, 60), min_size=2, max_size=5))
            labels.append([high] + [high - x for x in below])
    if draw(st.booleans()):
        labels.reverse()
    return labels


@settings(max_examples=500, deadline=None)
@given(top_pairs())
def test_sumset_of_labels_at_the_64_bit_top_matches_brute_force(pair):
    raw_a, raw_b = pair
    a, b = IntegerSet(raw_a), IntegerSet(raw_b)
    if max(raw_a) + max(raw_b) > U64_MAX:
        with pytest.raises(LabelOverflowError):
            sumset(a, b)
        return
    s = sumset(a, b)
    expected = brute_sumset(raw_a, raw_b)
    assert list(s) == expected and len(s) == len(expected)
    assert (type(s) is APSet) == is_progression(expected)
    if type(s) is APSet:
        gap = expected[1] - expected[0] if len(expected) > 1 else None
        assert (s.first, s.difference, s.length, s.last) == (
            expected[0], gap, len(expected), expected[-1]
        )


# a path of 10^4-term labels: 2 MB is ~10x what the terms of 200 vertices
# take, and far below one label's elements (10^4 ints, ~0.3 MB) times the 399
# labels; 1,000 vertices (1,999 labels) must fit the same bound
@pytest.mark.parametrize(
    "policy, n",
    [(policy, n) for n in (200, 1000) for policy in ("fixed", "random", "maximal")],
    ids=["fixed", "random", "maximal", "fixed-1000", "random-1000", "maximal-1000"],
)
def test_long_labels_cost_their_terms_not_their_elements(policy, n):
    graph = path_graph(n)
    params = ConstructionParams(label_size_range=(10_000, 10_000), multiplier_policy=policy)
    tracemalloc.start()
    try:
        lg = construct_arbitrary(graph, params).labeled_graph
        report = classify_arithmetic(lg)
        verdicts = (check_multiplier_condition(lg).ok, check_gcd_invariant(lg).ok)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_iasi and report.arithmetic and verdicts == (True, True)
    assert peak <= 2_000_000


# ------------------------------------------------ sumset at the 64-bit boundary

_HALF = 2**63  # (_HALF - 1) + _HALF == U64_MAX

# each path's operands with a maximum sum of exactly U64_MAX, then U64_MAX + 1
_BOUNDARY = {
    "closed form": (range(_HALF - 4, _HALF), range(_HALF - 6, _HALF + 1, 2)),
    "exact sum": ([_HALF - 9, _HALF - 8, _HALF - 1], [_HALF - 5, _HALF]),
    "singleton shift": ([_HALF - 1], [_HALF - 3, _HALF - 1, _HALF]),
}


@pytest.mark.parametrize("path", sorted(_BOUNDARY))
@pytest.mark.parametrize("swap", [False, True])
def test_sumset_reaches_the_64_bit_boundary_on_every_path(path, swap):
    a, b = (IntegerSet(s) for s in _BOUNDARY[path])
    if swap:
        a, b = b, a
    assert max(a) + max(b) == U64_MAX
    with patch.object(sets_module, "_unchecked", wraps=sets_module._unchecked) as exact:
        s = sumset(a, b)
    assert list(s) == brute_sumset(a, b)
    assert exact.called == (path == "exact sum")
    assert (type(s) is APSet) == is_progression(s)

    past = IntegerSet(x + 1 for x in b)  # same shape, one more at the top
    with pytest.raises(LabelOverflowError) as raised:
        sumset(a, past)
    assert str(raised.value) == f"maximum sum {max(a)} + {max(past)} exceeds the 64-bit range"


# ------------------------------------------------------------- labeled graphs

_NAMES = "abcdef"


@st.composite
def labelings(draw, labels):
    """A graph on 2 to 6 vertices, often disconnected, and a raw label per vertex."""
    names = _NAMES[: draw(st.integers(2, len(_NAMES)))]
    edges = draw(
        st.lists(st.sampled_from(list(combinations(names, 2))), min_size=1, unique=True)
    )
    graph = Graph(sorted({x for e in edges for x in e}), edges)
    return graph, {v: draw(labels) for v in graph.vertices}


# a tiny pool: vertex labels repeat often, and so do edge sums of distinct ones
_TINY = st.sets(st.integers(0, 3), min_size=1, max_size=3)
# singletons, pairs, progressions of 3 or more and sets that are none of these
_MIXED = st.one_of(
    st.builds(
        lambda first, d, length: set(range(first, first + d * length, d)),
        st.integers(0, 30), st.integers(1, 4), st.integers(1, 5),
    ),
    st.sets(st.integers(0, 30), min_size=1, max_size=5),
)


def reference_collision(graph, raw):
    """The first repeat in canonical order: all vertex labels, then all edge labels."""
    vertex = [(v, sorted(raw[v])) for v in graph.vertices]
    edge = [((u, v), brute_sumset(raw[u], raw[v])) for u, v in graph.edges]
    for kind, named in (("vertex", vertex), ("edge", edge)):
        for j, (name, label) in enumerate(named):
            for earlier, other in named[:j]:
                if other == label:
                    return Collision(kind, earlier, name, tuple(label))
    return None


@settings(max_examples=300, deadline=None)
@given(labelings(_TINY))
def test_verify_iasi_matches_a_first_repeat_reference(labeling):
    graph, raw = labeling
    report = verify_iasi(LabeledGraph(graph, raw))
    expected = reference_collision(graph, raw)
    assert report.collision == expected
    assert report.is_iasi == (expected is None)


@given(labelings(_MIXED))
def test_edge_labels_are_keyed_by_the_graph_edges(labeling):
    graph, raw = labeling
    lg = LabeledGraph(graph, raw)
    assert len(lg.edge_labels) == len(graph.edges)
    for key, edge in zip(lg.edge_labels, graph.edges):
        assert key is edge
        assert list(lg.edge_labels[key]) == brute_sumset(raw[edge[0]], raw[edge[1]])


@settings(max_examples=300, deadline=None)
@given(labelings(st.one_of(_MIXED, _TINY)))
def test_classify_arithmetic_matches_a_reference_field_by_field(labeling):
    graph, raw = labeling
    vertex = {v: sorted(raw[v]) for v in graph.vertices}
    edge = [brute_sumset(raw[u], raw[v]) for u, v in graph.edges]
    vertex_arithmetic = all(len(s) >= 3 and is_progression(s) for s in vertex.values())
    progressions = [is_progression(s) for s in edge]
    edge_sizes, vertex_sizes = {len(s) for s in edge}, {len(s) for s in vertex.values()}
    collision = reference_collision(graph, raw)
    expected = {
        "is_iasi": collision is None,
        "collision": collision,
        "uniform_k": edge_sizes.pop() if len(edge_sizes) == 1 else None,
        "vertex_uniform_l": vertex_sizes.pop() if len(vertex_sizes) == 1 else None,
        "vertex_arithmetic": vertex_arithmetic,
        "edge_arithmetic": all(progressions),
        "arithmetic": vertex_arithmetic and all(progressions),
        "semi_arithmetic": vertex_arithmetic and not all(progressions),
        "strict_semi_arithmetic": vertex_arithmetic and not any(progressions),
        "sub_minimal_vertices": tuple(v for v, s in vertex.items() if len(s) < 3),
    }
    report = classify_arithmetic(LabeledGraph(graph, raw))
    assert {field: getattr(report, field) for field in expected} == expected
    assert set(expected) == {field.name for field in fields(report)}
