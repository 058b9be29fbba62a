"""Label transfer under contraction, reduction, subdivision, line and total graphs."""

import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    ConstructionParams,
    Graph,
    GraphValidationError,
    LabelCollisionError,
    LabeledGraph,
    NotArithmeticError,
    construct_arbitrary,
    contract_edge,
    cycle_graph,
    path_graph,
    reduce_topologically,
    star_graph,
    subdivide,
    to_line_graph,
    to_total_graph,
)
from iasi.transforms import _contracted, _subdivided
from reference import assert_arithmetic, brute_sumset


def p3_example():
    g = Graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    return LabeledGraph(g, {"u": {0, 1, 2}, "v": {10, 11, 12}, "w": {20, 22, 24}})


def uniform(graph, seed=0):
    return construct_arbitrary(graph, ConstructionParams(seed=seed)).labeled_graph


# ------------------------------------------------------------------ contract


def test_contract_frozen_example():
    out = contract_edge(p3_example(), ("u", "v"))
    assert out.graph.vertices == ("(u*v)", "w")
    assert tuple(out.vertex_labels["(u*v)"]) == (10, 11, 12, 13, 14)
    assert_arithmetic(out)


def test_contract_collapses_parallel_edges():
    tri = uniform(cycle_graph(3))
    out = contract_edge(tri, ("a", "b"))
    assert len(out.graph.vertices) == 2 and len(out.graph.edges) == 1
    assert_arithmetic(out)


def test_contract_vertex_count_drops_by_one():
    lg = uniform(cycle_graph(5))
    out = contract_edge(lg, lg.graph.edges[0])
    assert len(out.graph.vertices) == len(lg.graph.vertices) - 1


def test_contract_lone_edge_rejected():
    g = Graph(["u", "v"], [("u", "v")])
    lg = LabeledGraph(g, {"u": {0, 1, 2}, "v": {10, 12, 14}})
    with pytest.raises(GraphValidationError) as exc:
        contract_edge(lg, ("u", "v"))
    assert any(v.kind == "isolated-vertex" for v in exc.value.violations)


@pytest.mark.parametrize("op", [contract_edge, subdivide], ids=["contract", "subdivide"])
@pytest.mark.parametrize(
    "edge, message",
    [
        (("u", "w"), "no such edge: ('u', 'w')"),
        (["w", "u"], "no such edge: ('u', 'w')"),
        (("a", 1), "no such edge: ('a', 1)"),
        (("a",), "no such edge: ('a',)"),
    ],
    ids=["absent", "absent-list", "non-string", "one-endpoint"],
)
def test_contract_unknown_edge(op, edge, message):
    with pytest.raises(ValueError) as exc:
        op(p3_example(), edge)
    assert str(exc.value) == message


P3_TRANSFORMS = {
    "contract": lambda lg: contract_edge(lg, ("u", "v")),
    "subdivide": lambda lg: subdivide(lg, ("u", "v")),
    "reduce": lambda lg: reduce_topologically(lg, "v"),
    "line": to_line_graph,
    "total": to_total_graph,
}


@pytest.mark.parametrize(
    "labels, reason",
    [
        ({"u": {0, 1, 3}, "v": {10, 11, 12}, "w": {20, 22, 24}}, "an arithmetic labeling"),
        ({"u": {0, 1, 2}, "v": {10, 11, 12}, "w": {0, 1, 2}}, "an injective labeling"),
    ],
    ids=["non-arithmetic", "non-injective"],
)
@pytest.mark.parametrize("op", list(P3_TRANSFORMS))
def test_transforms_require_arithmetic_input(op, labels, reason):
    g = Graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    lg = LabeledGraph(g, labels)
    with pytest.raises(NotArithmeticError, match=f"requires {reason}"):
        P3_TRANSFORMS[op](lg)


# ------------------------------------------------------------------- reduce


def test_reduce_bridges_neighbors():
    out = reduce_topologically(p3_example(), "v")
    assert out.graph.edges == (("u", "w"),)
    assert list(out.edge_labels[("u", "w")]) == brute_sumset((0, 1, 2), (20, 22, 24))
    assert_arithmetic(out)


def test_reduce_requires_degree_two():
    lg = uniform(star_graph(4))
    with pytest.raises(ValueError, match="degree"):
        reduce_topologically(lg, "a")


@pytest.mark.parametrize("vertex", ["zz", 1, ["a"]], ids=["absent", "int", "list"])
def test_reduce_unknown_vertex(vertex):
    lg = uniform(star_graph(4))
    with pytest.raises(ValueError) as exc:
        reduce_topologically(lg, vertex)
    assert str(exc.value) == f"no such vertex: {vertex!r}"


def test_reduce_requires_non_adjacent_neighbors():
    lg = uniform(cycle_graph(3))
    with pytest.raises(ValueError, match="adjacent"):
        reduce_topologically(lg, "a")


# ---------------------------------------------------------------- subdivide


def test_subdivide_frozen_example():
    g = Graph(["u", "v"], [("u", "v")])
    lg = LabeledGraph(g, {"u": {0, 2, 4}, "v": {1, 3, 5}})
    out = subdivide(lg, ("u", "v"))
    assert tuple(out.vertex_labels["(u~v)"]) == (1, 3, 5, 7, 9)
    assert set(out.graph.edges) == {("(u~v)", "u"), ("(u~v)", "v")}
    assert_arithmetic(out)


def test_subdivide_grows_by_one_vertex_one_edge():
    lg = uniform(cycle_graph(4))
    out = subdivide(lg, lg.graph.edges[0])
    assert len(out.graph.vertices) == len(lg.graph.vertices) + 1
    assert len(out.graph.edges) == len(lg.graph.edges) + 1


def test_subdivide_then_reduce_round_trips():
    for graph in (path_graph(3), cycle_graph(4), star_graph(4)):
        lg = uniform(graph)
        for edge in lg.graph.edges:
            u, v = edge
            mid = f"({u}~{v})"
            back = reduce_topologically(subdivide(lg, edge), mid)
            assert back == lg


# --------------------------------------------------------------- line graph


def test_line_graph_of_path():
    lg = p3_example()
    out = to_line_graph(lg)
    assert out.graph.vertices == ("(u,v)", "(v,w)")
    assert out.vertex_labels["(u,v)"] == lg.edge_labels[("u", "v")]
    assert out.vertex_labels["(v,w)"] == lg.edge_labels[("v", "w")]
    assert_arithmetic(out)


def test_line_graph_structure_counts():
    for graph in (cycle_graph(4), star_graph(5), path_graph(5)):
        lg = uniform(graph)
        out = to_line_graph(lg)
        assert len(out.graph.vertices) == len(graph.edges)
        expected_edges = sum(
            graph.degree(v) * (graph.degree(v) - 1) // 2 for v in graph.vertices
        )
        assert len(out.graph.edges) == expected_edges


def test_line_graph_of_cycle_is_cycle():
    lg = uniform(cycle_graph(4))
    out = to_line_graph(lg)
    assert len(out.graph.vertices) == 4
    assert all(out.graph.degree(v) == 2 for v in out.graph.vertices)
    assert_arithmetic(out)


def test_line_graph_needs_two_edges():
    g = Graph(["u", "v"], [("u", "v")])
    lg = LabeledGraph(g, {"u": {0, 1, 2}, "v": {10, 12, 14}})
    with pytest.raises(ValueError):
        to_line_graph(lg)


# -------------------------------------------------------------- total graph


def test_total_graph_of_single_edge():
    g = Graph(["u", "v"], [("u", "v")])
    lg = LabeledGraph(g, {"u": {0, 1, 2}, "v": {0, 2, 4}})
    out = to_total_graph(lg)
    # three mutually adjacent points: u, v, and the edge point
    assert len(out.graph.vertices) == 3 and len(out.graph.edges) == 3
    assert tuple(out.vertex_labels["(u,v)"]) == (0, 1, 2, 3, 4, 5, 6)
    assert_arithmetic(out)


def test_total_graph_structure_counts():
    spread_c4 = LabeledGraph(
        cycle_graph(4),
        {"a": {0, 1, 2}, "b": {100, 101, 102}, "c": {1000, 1001, 1002}, "d": {300, 301, 302}},
    )
    for lg in (uniform(path_graph(4)), spread_c4):
        graph = lg.graph
        out = to_total_graph(lg)
        e = len(graph.edges)
        line_edges = sum(
            graph.degree(v) * (graph.degree(v) - 1) // 2 for v in graph.vertices
        )
        assert len(out.graph.vertices) == len(graph.vertices) + e
        assert len(out.graph.edges) == e + line_edges + 2 * e


def test_total_graph_vertex_vs_edge_label_collision():
    # the three-point star transfers f+ values that clash with sums already
    # present among the incidences: a structured witness, not a bad labeling
    lg = uniform(star_graph(3), seed=7)
    with pytest.raises(LabelCollisionError) as exc:
        to_total_graph(lg)
    assert exc.value.witness.kind in ("vertex", "edge")


@pytest.mark.parametrize("policy", ["fixed", "random", "maximal"])
def test_new_point_names_avoid_existing_vertices(policy):
    # each new point takes an apostrophe when its name is already a vertex
    for op, existing in (
        (to_total_graph, "(a,b)"),
        (lambda lg: contract_edge(lg, ("a", "b")), "(a*b)"),
        (lambda lg: subdivide(lg, ("a", "b")), "(a~b)"),
    ):
        graph = Graph(["a", "b", existing], [("a", "b"), ("b", existing)])
        lg = construct_arbitrary(graph, ConstructionParams(multiplier_policy=policy)).labeled_graph
        out = op(lg)
        assert out.vertex_labels[existing + "'"] == lg.edge_labels[("a", "b")]
        assert out.vertex_labels[existing] == lg.vertex_labels[existing]


def test_a_new_point_takes_apostrophes_until_its_name_is_free():
    # "(a,b)" and "(a,b)'" are both vertices, so the point of edge a-b is "(a,b)''"
    graph = Graph(["a", "b", "(a,b)", "(a,b)'"], [("a", "b"), ("a", "(a,b)"), ("b", "(a,b)'")])
    lg = uniform(graph)
    out = to_total_graph(lg)
    assert out.vertex_labels["(a,b)''"] == lg.edge_labels[("a", "b")]
    assert out.graph.neighbors("(a,b)''") == ("((a,b)',b)", "((a,b),a)", "a", "b")


# ------------------------------------------------- preservation, uniform case


def test_all_transforms_preserve_uniform_difference_labelings():
    lg = uniform(cycle_graph(4), seed=21)
    for out in (
        contract_edge(lg, lg.graph.edges[0]),
        subdivide(lg, lg.graph.edges[0]),
        to_line_graph(lg),
    ):
        report = assert_arithmetic(out)
        assert report.vertex_arithmetic and report.edge_arithmetic


# ------------------------------------- output structures, built once per graph


def outcome(transform, lg, *args):
    """A transform's output labeling as comparable data, or the error it raised."""
    try:
        out = transform(lg, *args)
    except LabelCollisionError as exc:
        return "collision", exc.witness
    except GraphValidationError as exc:
        return "rejected", exc.violations
    except ValueError as exc:
        return "invalid", str(exc)
    return "ok", out.graph, list(out.vertex_labels.items())


def every_transform(graph):
    """Each transform with every argument it takes on ``graph``, valid or not."""
    calls = [(contract_edge, e) for e in graph.edges] + [(subdivide, e) for e in graph.edges]
    calls += [(reduce_topologically, v) for v in graph.vertices]
    return calls + [(to_line_graph,), (to_total_graph,)]


@st.composite
def small_graphs(draw):
    names = "abcdef"[: draw(st.integers(2, 6))]
    edges = draw(st.lists(st.sampled_from(list(combinations(names, 2))), min_size=1, unique=True))
    return Graph(sorted({x for e in edges for x in e}), edges)


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(), order=st.randoms(use_true_random=False), seed=st.integers(0, 9))
def test_warm_structures_match_a_fresh_graph(graph, order, seed):
    # the three policies label one Graph, so all but the first call of each
    # transform and argument read the structure cached on it; a shuffled call
    # order makes each kind replace its cached argument
    labelings = [
        construct_arbitrary(graph, ConstructionParams(multiplier_policy=p, seed=seed)).labeled_graph
        for p in ("fixed", "random", "maximal")
    ]
    calls = every_transform(graph)
    order.shuffle(calls)
    for transform, *args in calls:
        for lg in labelings:
            fresh = LabeledGraph(Graph(graph.vertices, graph.edges), lg.vertex_labels)
            assert outcome(transform, lg, *args) == outcome(transform, fresh, *args)


def test_contracting_every_edge_keeps_one_structure():
    lg = uniform(cycle_graph(8))
    graph = lg.graph
    for edge in graph.edges:
        contract_edge(lg, edge)
    structures = [
        fact for _, fact in graph._cache.values()
        if isinstance(fact, tuple) and isinstance(fact[0], Graph)
    ]
    assert len(structures) == 1
    assert graph._cache[_contracted][0] == (graph.edges[-1],)
    # a structure that fails its check is not kept
    lone = LabeledGraph(Graph(["u", "v"], [("u", "v")]), {"u": {0, 1, 2}, "v": {10, 12, 14}})
    for _ in range(2):
        with pytest.raises(GraphValidationError):
            contract_edge(lone, ("u", "v"))
    assert _contracted not in lone.graph._cache


@pytest.mark.parametrize(
    "op, build",
    [(contract_edge, _contracted), (subdivide, _subdivided)],
    ids=["contract", "subdivide"],
)
def test_an_edge_failing_its_check_caches_nothing(op, build):
    lg = p3_example()
    op(lg, ("v", "w"))
    kept = dict(lg.graph._cache)
    for edge in [("u", "w"), ("u",), ("u", 1), "uv"]:
        with pytest.raises(ValueError, match="no such edge"):
            op(lg, edge)
    assert lg.graph._cache == kept
    assert kept[build][0] == (("v", "w"),)


@pytest.mark.parametrize("op", [contract_edge, subdivide], ids=["contract", "subdivide"])
def test_edge_orientation_and_type_do_not_matter(op):
    expected = op(p3_example(), ("u", "v"))
    lg = p3_example()
    for edge in [("v", "u"), ["u", "v"], ["v", "u"], ("u", "v")]:
        assert op(lg, edge) == expected
    # a list edge changed after the call is read afresh, not from the cache
    edge = ["u", "v"]
    op(lg, edge)
    edge[:] = ["v", "w"]
    assert op(lg, edge) == op(p3_example(), ("v", "w"))


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy]
    + [
        lambda g, p=protocol: pickle.loads(pickle.dumps(g, p))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(2, pickle.HIGHEST_PROTOCOL + 1)],
)
def test_warm_graph_copies_equal(clone):
    lg = uniform(cycle_graph(5))
    graph = lg.graph
    calls = every_transform(graph)
    before = [outcome(transform, lg, *args) for transform, *args in calls]
    twin = clone(graph)
    assert twin == graph and hash(twin) == hash(graph)
    assert twin.graph_id() == graph.graph_id() and twin.is_connected()
    assert [twin.neighbors(v) for v in twin.vertices] == list(map(graph.neighbors, graph.vertices))
    relabeled = LabeledGraph(twin, lg.vertex_labels)
    assert [outcome(transform, relabeled, *args) for transform, *args in calls] == before
