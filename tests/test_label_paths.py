"""The per-edge and per-label paths every labeled graph goes through.

Each is held to a plain reference built from nested loops and sorted
lists: ``sumset`` at the 64-bit boundary on each of its three paths,
``LabeledGraph``'s edge label keys, the first-repeat witness of
``verify_iasi`` and every field of ``classify_arithmetic``.
"""

from dataclasses import fields
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    APSet,
    Collision,
    Graph,
    IntegerSet,
    LabeledGraph,
    LabelOverflowError,
    U64_MAX,
    classify_arithmetic,
    sumset,
    verify_iasi,
)
from iasi import sets as sets_module
from reference import brute_sumset, is_progression


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
