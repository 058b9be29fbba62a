"""Graph validation, labelings, induced edge labels, index summaries."""

import pytest

from iasi import (
    Graph,
    GraphValidationError,
    InvalidLabelingError,
    IntegerSet,
    LabeledGraph,
    LabelOverflowError,
    U64_MAX,
    find_graph_violations,
    summarize_indices,
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
    assert g.components() == [("a", "b"), ("c", "d")]
    assert not g.is_connected()
    assert Graph(["a", "b"], [("a", "b")]).is_connected()


def test_graph_id_is_canonical():
    g = Graph(["b", "a", "c"], [("c", "b"), ("b", "a")])
    assert g.graph_id() == "a-b,b-c"


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


# ------------------------------------------------------------ IndexSummary


def test_summarize_indices_frozen_example():
    g = Graph(["u", "v"], [("u", "v")])
    lg = LabeledGraph(g, {"u": {0, 2, 4}, "v": {1, 3, 5}})
    summary = summarize_indices(lg)
    assert summary.vertex_indexing_numbers == {"u": 3, "v": 3}
    assert summary.edge_indexing_numbers == {("u", "v"): 5}
    assert summary.vertex_deterministic_indices == {"u": 2, "v": 2}
    assert summary.edge_deterministic_indices == {("u", "v"): 2}


def test_summarize_indices_sentinels():
    g = Graph(["u", "v"], [("u", "v")])
    lg = LabeledGraph(g, {"u": {7}, "v": {0, 1, 5}})
    summary = summarize_indices(lg)
    # singleton and non-progression both surface as None
    assert summary.vertex_deterministic_indices == {"u": None, "v": None}
    # {7}+{0,1,5} = {7,8,12}: not a progression either
    assert summary.edge_deterministic_indices == {("u", "v"): None}
