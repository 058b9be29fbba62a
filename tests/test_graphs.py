"""Graph validation, labelings, induced edge labels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    Graph,
    GraphValidationError,
    GraphViolation,
    InvalidLabelingError,
    IntegerSet,
    LabeledGraph,
    LabelOverflowError,
    U64_MAX,
    find_graph_violations,
    verify_iasi,
)


def kinds(violations):
    return {v.kind for v in violations}


def test_self_loop_reported():
    vs = find_graph_violations(["a"], [("a", "a")])
    assert "self-loop" in kinds(vs)


def test_duplicate_edge_either_orientation():
    vs = find_graph_violations(["a", "b"], [("a", "b"), ("b", "a")])
    assert kinds(vs) == {"duplicate-edge"}


def test_isolated_vertex_reported():
    vs = find_graph_violations(["a", "b", "c"], [("a", "b")])
    assert kinds(vs) == {"isolated-vertex"}
    assert any(v.element == "c" for v in vs)


def test_dangling_endpoint_reported():
    vs = find_graph_violations(["a", "b"], [("a", "b"), ("a", "x")])
    assert "dangling-endpoint" in kinds(vs)


def test_duplicate_vertex_reported():
    vs = find_graph_violations(["a", "b", "a"], [("a", "b")])
    assert "duplicate-vertex" in kinds(vs)


def test_empty_graph_rejected():
    assert kinds(find_graph_violations([], [])) == {"empty-graph"}
    with pytest.raises(GraphValidationError, match="empty-graph"):
        Graph([], [])


def test_labels_follow_canonical_graph_order():
    g = Graph(["d", "b", "a", "c"], [("b", "a"), ("c", "b"), ("d", "c"), ("d", "a")])
    labels = {"d": {1, 2}, "c": {5}, "b": {1, 2}, "a": {1, 2}}
    lg = LabeledGraph(g, labels)
    assert lg.graph.vertices == ("a", "b", "c", "d")
    assert list(lg.vertex_labels) == list(lg.graph.vertices)
    assert lg.graph.edges == (("a", "b"), ("a", "d"), ("b", "c"), ("c", "d"))
    assert list(lg.edge_labels) == list(lg.graph.edges)
    # three vertices share {1, 2}; the witness is the first pair in vertex order
    collision = verify_iasi(lg).collision
    assert (collision.kind, collision.first, collision.second) == ("vertex", "a", "b")


def test_graph_constructor_raises_with_violations():
    with pytest.raises(GraphValidationError) as exc:
        Graph(["a", "b", "c"], [("a", "b")])
    assert "isolated-vertex" in kinds(exc.value.violations)


@pytest.mark.parametrize("one_shot", ["vertices", "edges"])
def test_graph_accepts_one_shot_iterables(one_shot):
    vertices, edges = ["a", "b", "c"], [("a", "b"), ("b", "c")]
    g = Graph(
        iter(vertices) if one_shot == "vertices" else vertices,
        iter(edges) if one_shot == "edges" else edges,
    )
    assert g == Graph(vertices, edges)
    assert g.neighbors("b") == ("a", "c")


def test_validate_graph_canonicalizes():
    g = Graph(["b", "a", "c"], [("c", "a"), ("b", "a")])
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("a", "c"))
    assert g.neighbors("a") == ("b", "c")
    assert g.degree("a") == 2 and g.degree("b") == 1


def test_has_edge_either_orientation_and_unknown_vertex():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c") and not g.has_edge("c", "a")
    assert not g.has_edge("a", "z") and not g.has_edge("z", "a")


def test_components_and_connectivity():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert not g.is_connected()
    assert Graph(["a", "b"], [("a", "b")]).is_connected()


def test_graph_id_is_canonical():
    g = Graph(["b", "a", "c"], [("c", "b"), ("b", "a")])
    assert g.graph_id() == "a-b,b-c"


# Reference: validate in one pass, then canonicalize and build in a second.
def reference_violations(vertices, edges):
    violations = []
    vertices = list(vertices)
    if not vertices:
        violations.append(GraphViolation("empty-graph", ()))
    vset = set(vertices)
    seen = set()
    for v in vertices:
        if v in seen:
            violations.append(GraphViolation("duplicate-vertex", v))
        seen.add(v)
    seen_edges, touched = set(), set()
    for u, v in edges:
        if u == v:
            violations.append(GraphViolation("self-loop", (u, v)))
            continue
        dangling = [end for end in (u, v) if end not in vset]
        violations += [GraphViolation("dangling-endpoint", (u, v)) for _ in dangling]
        if dangling:
            continue
        e = (u, v) if u <= v else (v, u)
        if e in seen_edges:
            violations.append(GraphViolation("duplicate-edge", e))
            continue
        seen_edges.add(e)
        touched.update(e)
    for v in sorted(vset):
        if v not in touched:
            violations.append(GraphViolation("isolated-vertex", v))
    return violations


def reference_build(vertices, edges):
    vertices = tuple(sorted(set(vertices)))
    edges = tuple(sorted((u, v) if u <= v else (v, u) for u, v in edges))
    adjacency = {v: set() for v in vertices}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return vertices, edges, {v: tuple(sorted(ns)) for v, ns in adjacency.items()}


names = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def raw_graphs(draw):
    """Raw vertex and edge lists, half of them valid simple graphs."""
    if draw(st.booleans()):
        edges = draw(
            st.lists(
                st.tuples(names, names).filter(lambda e: e[0] != e[1]),
                unique_by=frozenset,
                max_size=8,
            )
        )
        vertices = draw(st.permutations(sorted({x for e in edges for x in e})))
        return vertices, edges
    vertices = draw(st.lists(names, max_size=6))
    edges = draw(st.lists(st.tuples(names, names), max_size=8))
    return vertices, edges


@settings(max_examples=400, deadline=None)
@given(raw_graphs())
def test_one_scan_matches_two_pass_reference(data):
    vertices, edges = data
    expected = reference_violations(vertices, edges)
    assert find_graph_violations(vertices, edges) == expected
    if expected:
        with pytest.raises(GraphValidationError) as exc:
            Graph(vertices, edges)
        assert list(exc.value.violations) == expected
        return
    g = Graph(vertices, edges)
    ref_vertices, ref_edges, ref_adjacency = reference_build(vertices, edges)
    assert g.vertices == ref_vertices
    assert g.edges == ref_edges
    assert {v: g.neighbors(v) for v in g.vertices} == ref_adjacency


# ------------------------------------------------------------- LabeledGraph


def triangle():
    return Graph(["u", "v", "w"], [("u", "v"), ("u", "w"), ("v", "w")])


def test_induced_edge_labels_frozen_example():
    lg = LabeledGraph(
        triangle(), {"u": {0, 1}, "v": {2, 3}, "w": {4, 6}}
    )
    assert tuple(lg.edge_labels[("u", "v")]) == (2, 3, 4)
    assert tuple(lg.edge_labels[("u", "w")]) == (4, 5, 6, 7)
    assert tuple(lg.edge_labels[("v", "w")]) == (6, 7, 8, 9)


def test_labeling_must_be_total():
    with pytest.raises(InvalidLabelingError, match="w"):
        LabeledGraph(triangle(), {"u": {0}, "v": {1}})


def test_labeling_rejects_empty_label():
    with pytest.raises(InvalidLabelingError, match="v"):
        LabeledGraph(triangle(), {"u": {0}, "v": set(), "w": {1}})


def test_non_injective_labeling_allowed_at_construction():
    lg = LabeledGraph(triangle(), {"u": {5}, "v": {5}, "w": {1, 2}})
    assert lg.vertex_labels["u"] == lg.vertex_labels["v"]


def test_labels_coerced_to_integer_sets():
    g = Graph(["u", "v"], [("u", "v")])
    lg = LabeledGraph(g, {"u": [3, 1, 3], "v": (0,)})
    assert lg.vertex_labels["u"] == IntegerSet([1, 3])


def test_induction_overflow_rejected():
    g = Graph(["u", "v"], [("u", "v")])
    with pytest.raises(LabelOverflowError):
        LabeledGraph(g, {"u": {U64_MAX}, "v": {2}})

