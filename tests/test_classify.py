"""Verifier and classifier behavior, including the documented edge cases."""

import sys
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iasi.classify as classify_module
from iasi import (
    ConstructionParams,
    DisconnectedGraphError,
    Graph,
    LabeledGraph,
    NotArithmeticError,
    check_gcd_invariant,
    check_multiplier_condition,
    check_singleton_endpoint_rule,
    check_uniformity,
    classify_arithmetic,
    classify_edges,
    construct_arbitrary,
    contract_edge,
    cycle_graph,
    detect_ap,
    reduce_topologically,
    subdivide,
    sumset,
    to_line_graph,
    to_total_graph,
    verify_iasi,
)
from iasi.sets import _difference


def p2(a, b):
    return LabeledGraph(Graph(["u", "v"], [("u", "v")]), {"u": a, "v": b})


def p3(a, b, c):
    g = Graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    return LabeledGraph(g, {"u": a, "v": b, "w": c})


# ----------------------------------------------------------------- verify


def test_verify_frozen_path_example():
    lg = p3({0}, {1, 2}, {0, 1})
    report = verify_iasi(lg)
    assert report.is_iasi and report.collision is None


def test_verify_vertex_collision_witness():
    lg = p3({1, 2}, {0}, {1, 2})
    report = verify_iasi(lg)
    assert not report.is_iasi
    assert report.collision.kind == "vertex"
    assert {report.collision.first, report.collision.second} == {"u", "w"}
    assert report.collision.label == (1, 2)


def test_verify_edge_collision_witness():
    # {0,2}+{0,1} == {0,1,2}+{0,1} == {0,1,2,3} while all vertex labels differ
    lg = p3({0, 2}, {0, 1}, {0, 1, 2})
    report = verify_iasi(lg)
    assert not report.is_iasi
    assert report.collision.kind == "edge"
    assert set(report.collision.label) == {0, 1, 2, 3}


def test_failure_messages_pluralize_and_sort_labels():
    vertex = classify_module.Collision("vertex", "a", "d", (1, 8, 15))
    assert str(vertex) == "vertices 'a' and 'd' share label {1, 8, 15}"
    edge = classify_module.Collision("edge", ("a", "b"), ("c", "d"), (30, 4, 17))
    assert str(edge) == "edges ('a', 'b') and ('c', 'd') share label {4, 17, 30}"
    with pytest.raises(NotArithmeticError) as exc:
        check_multiplier_condition(p2({1, 8, 100}, {0, 2, 4}))
    assert str(exc.value) == (
        "vertex 'u' has no deterministic index: label {1, 8, 100} is "
        "not a progression of two or more elements"
    )


# ----------------------------------------------------------- edge grading


def test_weak_and_strong_can_coincide():
    report = classify_edges(p2({1}, {2, 4}))
    cls = report[("u", "v")]
    assert cls.weak and cls.strong and cls.indexing_number == 2


def test_strong_not_weak_example():
    cls = classify_edges(p2({0, 1, 2}, {0, 3, 6}))[("u", "v")]
    assert cls.strong and not cls.weak and cls.indexing_number == 9


def test_neither_weak_nor_strong():
    # {0,1,2,3}: above the max (3), below the product (6)
    cls = classify_edges(p2({0, 1}, {0, 1, 2}))[("u", "v")]
    assert not cls.weak and not cls.strong and cls.indexing_number == 4


def test_singleton_endpoint_rule():
    assert check_singleton_endpoint_rule(p2({3}, {1, 2}))
    assert check_singleton_endpoint_rule(p2({0, 1}, {0, 2}))  # no weak edge at all


def test_singleton_rule_exhaustive_small():
    """No weak edge exists between two labels of cardinality >= 2 (elements < 6)."""
    sets = [frozenset(c) for r in (1, 2, 3) for c in combinations(range(6), r)]
    for a in sets:
        for b in sets:
            s = sumset(a, b)
            if len(s) == max(len(a), len(b)):
                assert min(len(a), len(b)) == 1


# ------------------------------------------------------------- uniformity


def test_uniformity_cycle():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    lg = LabeledGraph(
        g, {"a": {0, 1, 2}, "b": {10, 11, 12}, "c": {30, 31, 32}}
    )
    assert check_uniformity(lg) == (5, 3)


def test_uniformity_absent():
    lg = p3({0, 1, 2}, {10, 11, 12}, {30, 31, 32, 33})
    k, l = check_uniformity(lg)
    assert k is None and l is None


# ------------------------------------------------------ arithmetic grading


def test_classify_arithmetic_frozen_example():
    report = classify_arithmetic(p2({0, 1, 2}, {0, 2, 4}))
    assert report.is_iasi
    assert report.vertex_arithmetic and report.edge_arithmetic and report.arithmetic
    assert not report.semi_arithmetic


def test_classify_semi_arithmetic_frozen_example():
    # multiplier 4 exceeds |{0,1,2}| = 3, so the edge label has gaps
    report = classify_arithmetic(p2({0, 1, 2}, {0, 4, 8}))
    assert report.vertex_arithmetic and not report.edge_arithmetic
    assert report.semi_arithmetic and not report.arithmetic


def test_semi_arithmetic_strict_reading():
    # one progression edge and one non-progression edge
    lg = p3({0, 2, 4}, {1, 3, 5}, {0, 8, 16})
    report = classify_arithmetic(lg)
    assert report.semi_arithmetic
    assert not report.strict_semi_arithmetic  # some edge is still a progression
    # no edge label is a progression: both readings hold
    both = classify_arithmetic(p2({0, 1, 2}, {0, 4, 8}))
    assert both.semi_arithmetic and both.strict_semi_arithmetic


def test_short_labels_are_not_vertex_arithmetic():
    report = classify_arithmetic(p2({0, 2}, {1, 4}))
    assert not report.vertex_arithmetic
    assert report.sub_minimal_vertices == ("u", "v")


def test_non_iasi_still_classified_with_flag():
    lg = p3({1, 2}, {0}, {1, 2})
    report = classify_arithmetic(lg)
    assert not report.is_iasi and report.collision is not None
    assert classify_edges(lg)  # grading still present


def test_arithmetic_never_weak():
    """Arithmetic forces >= 3 elements everywhere, which rules weak edges out."""
    lg = p2({0, 1, 2}, {0, 2, 4})
    assert classify_arithmetic(lg).arithmetic
    assert not any(cls.weak for cls in classify_edges(lg).values())


def test_edge_arithmetic_does_not_imply_vertex_arithmetic():
    """Counterexample hunt: a non-progression vertex label with a progression edge.

    {0,1,3} + {1,2} = {1,2,3,4,5} is a progression, so edge-arithmetic holds
    while the vertex side fails. The implication is checked empirically, not
    assumed; every counterexample found is reported here.
    """
    found = []
    sets = [frozenset(c) for r in (2, 3) for c in combinations(range(7), r)]
    for a in sets:
        for b in sets:
            if a == b:
                continue
            if detect_ap(sumset(a, b)) is None:
                continue
            if detect_ap(a) is None or detect_ap(b) is None:
                found.append((tuple(sorted(a)), tuple(sorted(b))))
    assert ((0, 1, 3), (1, 2)) in found
    for a, b in found:
        # self-consistency of each reported case
        assert detect_ap(sumset(a, b)) is not None
        assert detect_ap(a) is None or detect_ap(b) is None
    print(f"\nDISCREPANCY: edge-arithmetic without vertex-arithmetic in "
          f"{len(found)} small label pairs, e.g. {found[0]}")


# ---------------------------------------------------- multiplier condition


def test_multiplier_ok_within_bound():
    lg = p2({0, 2, 4, 6}, {1, 7, 13})  # differences 2 and 6, k=3 <= 4
    report = check_multiplier_condition(lg)
    assert report.ok and not report.violations


def test_multiplier_violation_bound_exceeded():
    lg = p2({0, 2}, {1, 7, 13})  # k=3 > |{0,2}| = 2
    report = check_multiplier_condition(lg)
    assert not report.ok
    v = report.violations[0]
    assert v.edge == ("u", "v") and v.multiplier == 3 and v.bound == 2


def test_multiplier_violation_non_multiple():
    lg = p2({0, 2, 4}, {0, 5, 10})
    report = check_multiplier_condition(lg)
    assert not report.ok
    assert report.violations[0].multiplier is None


def test_multiplier_requires_deterministic_indices():
    with pytest.raises(NotArithmeticError):
        check_multiplier_condition(p2({0, 1, 3}, {0, 2, 4}))
    with pytest.raises(NotArithmeticError):
        check_multiplier_condition(p2({5}, {0, 2, 4}))


def test_multiplier_agrees_with_edge_ap():
    """The bounded-multiple test and actual progression-ness coincide."""
    cases = [
        ({0, 2, 4}, {1, 5, 9}, True),     # k = 2 <= 3
        ({0, 2, 4}, {1, 9, 17}, False),   # k = 4 > 3
        ({0, 3, 6}, {2, 5, 8}, True),     # equal differences
        ({0, 2, 4}, {0, 3, 6}, False),    # non-multiple
    ]
    for a, b, expect in cases:
        lg = p2(a, b)
        assert check_multiplier_condition(lg).ok is expect
        assert _is_progression({x + y for x in a for y in b}) is expect


# ------------------------------------------------------------ gcd invariant


def test_gcd_path_frozen_example():
    # differences 2, 4, 8 along a path; edges carry 2 and 4
    lg = p3({0, 2, 4}, {100, 104, 108}, {200, 208, 216})
    report = check_gcd_invariant(lg)
    assert report.ok
    assert report.vertex_gcd == report.edge_gcd == report.min_vertex_difference == 2


def test_gcd_star_example():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    lg = LabeledGraph(
        g,
        {"a": {0, 3, 6}, "b": {100, 103, 106}, "c": {200, 206, 212}, "d": {300, 309, 318}},
    )
    report = check_gcd_invariant(lg)
    assert report.ok and report.vertex_gcd == 3


def test_gcd_requires_connected():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    lg = LabeledGraph(
        g,
        {"a": {0, 2, 4}, "b": {10, 12, 14}, "c": {0, 3, 6}, "d": {10, 13, 16}},
    )
    with pytest.raises(DisconnectedGraphError):
        check_gcd_invariant(lg)


def test_gcd_requires_deterministic_indices():
    with pytest.raises(NotArithmeticError):
        check_gcd_invariant(p2({0, 1, 3}, {0, 2, 4}))


# -------------------------------------------------------------- label facts


def test_label_differences_frozen_example():
    lg = p2({0, 2, 4}, {1, 3, 5})
    vertex_diffs = {v: _difference(s) for v, s in lg.vertex_labels.items()}
    edge_diffs = {e: _difference(s) for e, s in lg.edge_labels.items()}
    assert vertex_diffs == {"u": 2, "v": 2}
    assert edge_diffs == {("u", "v"): 2}
    assert classify_module._non_progression_edges(lg) == []


def test_label_differences_sentinels():
    lg = p2({7}, {0, 1, 5})
    vertex_diffs = {v: _difference(s) for v, s in lg.vertex_labels.items()}
    edge_diffs = {e: _difference(s) for e, s in lg.edge_labels.items()}
    # singleton and non-progression both surface as None
    assert vertex_diffs == {"u": None, "v": None}
    # {7}+{0,1,5} = {7,8,12}: not a progression either
    assert edge_diffs == {("u", "v"): None}
    assert classify_module._non_progression_edges(lg) == [("u", "v")]


def test_label_facts_computed_once_per_labeled_graph(monkeypatch):
    calls = []
    real = detect_ap

    def counting(s):
        calls.append(s)
        return real(s)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "iasi" and getattr(module, "detect_ap", None) is real:
            monkeypatch.setattr(module, "detect_ap", counting)

    # one collision scan per verify_iasi computation: it starts with the vertex labels
    scans = []
    real_scan = classify_module._first_collision

    def counting_scan(items, kind):
        if kind == "vertex":
            scans.append(kind)
        return real_scan(items, kind)

    monkeypatch.setattr(classify_module, "_first_collision", counting_scan)

    lg = construct_arbitrary(
        cycle_graph(5), ConstructionParams(multiplier_policy="maximal", seed=3)
    ).labeled_graph
    assert classify_arithmetic(lg).arithmetic
    assert check_multiplier_condition(lg).ok
    assert check_gcd_invariant(lg).ok
    assert verify_iasi(lg).is_iasi
    assert len(scans) == 1
    out = subdivide(lg, lg.graph.edges[0])
    assert len(calls) <= len(lg.vertex_labels) + len(lg.edge_labels)
    # the transform verified its output; classifying it reads that report
    assert len(scans) == 2
    assert classify_arithmetic(out).is_iasi
    assert verify_iasi(out).is_iasi
    assert len(scans) == 2


def test_classification_never_builds_edge_grades(monkeypatch):
    def refuse(lg):
        raise AssertionError("classify_edges called")

    monkeypatch.setattr(classify_module, "classify_edges", refuse)

    def fresh():
        spread = {"a": 0, "b": 100, "c": 1000, "d": 300}
        return LabeledGraph(cycle_graph(4), {v: {x, x + 1, x + 2} for v, x in spread.items()})

    assert classify_arithmetic(fresh()).arithmetic
    assert verify_iasi(fresh()).is_iasi
    edge, vertex = ("a", "b"), "a"
    for transform, *args in [
        (contract_edge, edge),
        (reduce_topologically, vertex),
        (subdivide, edge),
        (to_line_graph,),
        (to_total_graph,),
    ]:
        assert classify_arithmetic(transform(fresh(), *args)).is_iasi


def test_cached_reports_match_fresh_graph_for_both_readings():
    # u-v is a progression (k = 2 <= 3), v-w is not (k = 4 > 3)
    lg = p3({0, 1, 2}, {10, 12, 14}, {20, 28, 36})
    report = classify_arithmetic(lg)
    assert report.semi_arithmetic and not report.strict_semi_arithmetic
    assert classify_arithmetic(lg) is report
    fresh = LabeledGraph(lg.graph, lg.vertex_labels)
    assert classify_arithmetic(fresh) == report


def _is_progression(label) -> bool:
    """Brute force: a singleton, or the range from min to max by its first gap."""
    s = sorted(label)
    return len(s) == 1 or s == list(range(s[0], s[-1] + 1, s[1] - s[0]))


_progressions = st.builds(
    lambda first, d, length: set(range(first, first + d * length, d)),
    st.integers(0, 40), st.integers(1, 6), st.integers(1, 5),
)


@settings(max_examples=150, deadline=None)
@given(labels=st.tuples(_progressions, _progressions, _progressions), triangle=st.booleans())
def test_both_semi_readings_match_brute_force(labels, triangle):
    edges = [("u", "v"), ("v", "w")] + ([("u", "w")] if triangle else [])
    lg = LabeledGraph(Graph(["u", "v", "w"], edges), dict(zip("uvw", labels)))
    vertex_arithmetic = all(len(s) >= 3 for s in labels)
    progression_edges = [_is_progression(label) for label in lg.edge_labels.values()]

    runs = []
    real = classify_module._classify

    def counting(g):
        runs.append(g)
        return real(g)

    with patch.object(classify_module, "_classify", counting):
        reports = [classify_arithmetic(lg) for _ in range(3)]
    assert runs == [lg]
    report = reports[0]
    assert all(r is report for r in reports)
    assert report.vertex_arithmetic == vertex_arithmetic
    assert report.semi_arithmetic == (vertex_arithmetic and not all(progression_edges))
    assert report.strict_semi_arithmetic == (vertex_arithmetic and not any(progression_edges))
