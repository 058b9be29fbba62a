"""Constructive labelers: arbitrary graphs and complete graphs."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    APSet,
    ConstructionParams,
    Graph,
    LabelOverflowError,
    U64_MAX,
    LabeledGraph,
    check_gcd_invariant,
    check_multiplier_condition,
    complete_graph,
    construct_arbitrary,
    construct_complete,
    cycle_graph,
    detect_ap,
    distinct_sum_sequence,
    enumerate_connected_graphs,
    path_graph,
    predicted_edge_cardinality,
    star_graph,
    verify_iasi,
)
from iasi.construct import _difference_budget, _progression_labels
from reference import assert_arithmetic, brute_sumset, is_progression


# -------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(base_difference=0)
    with pytest.raises(ValueError):
        ConstructionParams(label_size_range=(2, 4))
    with pytest.raises(ValueError):
        ConstructionParams(label_size_range=(5, 4))
    with pytest.raises(ValueError):
        ConstructionParams(multiplier_policy="biggest")
    # a float, a bool or a range that is not a pair is refused up front,
    # naming the field, not deep in random or in unpacking
    for field, value in [
        ("label_size_range", 5),
        ("label_size_range", (3,)),
        ("label_size_range", (3, 3, 3)),
        ("label_size_range", (3.5, 4)),
        ("label_size_range", (3.0, 3.0)),
        ("label_size_range", (True, 4)),
        ("base_difference", True),
        ("base_difference", 2.0),
        ("seed", True),
        ("seed", 1.0),
    ]:
        with pytest.raises(ValueError, match=field):
            ConstructionParams(**{field: value})


def greedy_reference(count):
    """Brute force: the next term is the least integer keeping every pair sum distinct."""
    terms = []
    candidate = 1
    while len(terms) < count:
        trial = terms + [candidate]
        sums = [a + b for i, a in enumerate(trial) for b in trial[i + 1:]]
        if len(sums) == len(set(sums)):
            terms = trial
        candidate += 1
    return terms


def test_distinct_sum_sequence_has_distinct_pair_sums():
    terms = distinct_sum_sequence(20)
    sums = [terms[i] + terms[j] for i in range(20) for j in range(i + 1, 20)]
    assert len(sums) == len(set(sums))
    assert terms[:6] == [1, 2, 3, 5, 8, 13]
    # up to 20 terms the sequence is the greedy one the catalog bytes depend on
    assert terms == greedy_reference(20)


def test_distinct_sum_sequence_every_count_up_to_300():
    # covers the switch from greedy (<= 20 terms) to Erdos-Turan (> 20)
    for count in range(301):
        terms = distinct_sum_sequence(count)
        assert len(terms) == count
        assert all(a < b for a, b in zip(terms, terms[1:])), count
        sums = {a + b for i, a in enumerate(terms) for b in terms[i + 1:]}
        assert len(sums) == count * (count - 1) // 2, count


@pytest.mark.parametrize(
    "count, error", [(-1, ValueError), (True, TypeError), (2.0, TypeError), (20.5, TypeError)]
)
def test_distinct_sum_sequence_rejects_bad_counts(count, error):
    with pytest.raises(error, match="count must be"):
        distinct_sum_sequence(count)


# ------------------------------------------------------- construct_arbitrary


def test_single_edge_frozen_example():
    # differences 2 and 3 * 2, sizes 3 and 4; stride 2 * (3 * 6) + 1 = 37
    lg = construct_complete((2, 6), sizes=(3, 4))
    assert tuple(lg.vertex_labels["a"]) == (37, 39, 41)
    assert tuple(lg.vertex_labels["b"]) == (74, 80, 86, 92)
    edge = lg.edge_labels[("a", "b")]
    assert detect_ap(edge).difference == 2
    assert len(edge) == 12 == predicted_edge_cardinality(3, 4, 3)
    assert_arithmetic(lg)


def test_cycle_with_documented_offsets():
    # traversal from a visits a, b, d, c; offsets 1, 2, 3, 5 times stride 2 * 2 + 1
    lg = construct_arbitrary(cycle_graph(4), ConstructionParams()).labeled_graph
    assert [lg.vertex_labels[v].first for v in "abdc"] == [5, 10, 15, 25]
    assert_arithmetic(lg)
    for label in lg.edge_labels.values():
        assert detect_ap(label).difference == 1


@pytest.mark.parametrize("policy", ["fixed", "random", "maximal"])
@pytest.mark.parametrize(
    "graph",
    [path_graph(5), cycle_graph(5), complete_graph(5), star_graph(5)],
    ids=lambda g: g.graph_id(),
)
def test_families_construct_arithmetic(graph, policy):
    result = construct_arbitrary(
        graph, ConstructionParams(multiplier_policy=policy, seed=13, label_size_range=(3, 5))
    )
    report = assert_arithmetic(result.labeled_graph)
    assert not report.semi_arithmetic
    assert check_multiplier_condition(result.labeled_graph).ok
    assert check_gcd_invariant(result.labeled_graph).ok


def test_construction_deterministic():
    g = complete_graph(4)
    p = ConstructionParams(multiplier_policy="random", seed=99, label_size_range=(3, 6))
    assert construct_arbitrary(g, p).labeled_graph == construct_arbitrary(g, p).labeled_graph


def test_seed_changes_random_draws():
    g = complete_graph(4)
    a = construct_arbitrary(
        g, ConstructionParams(multiplier_policy="random", seed=1, label_size_range=(3, 6))
    )
    b = construct_arbitrary(
        g, ConstructionParams(multiplier_policy="random", seed=2, label_size_range=(3, 6))
    )
    assert a.labeled_graph != b.labeled_graph


def test_fallback_still_arithmetic():
    # seed 3 draws multipliers 2 and 3 for the two branches of the cycle, so
    # the closing vertex sees differences {2, 3} and cannot bridge them
    result = construct_arbitrary(
        cycle_graph(4),
        ConstructionParams(multiplier_policy="random", seed=3, label_size_range=(3, 5)),
    )
    assert result.fallback_applied and result.fallback_vertex is not None
    assert len({s.difference for s in result.labeled_graph.vertex_labels.values()}) == 1
    assert_arithmetic(result.labeled_graph)


def test_multi_neighbor_takes_largest_difference():
    result = construct_arbitrary(
        complete_graph(3), ConstructionParams(multiplier_policy="maximal")
    )
    diffs = {v: s.difference for v, s in result.labeled_graph.vertex_labels.items()}
    assert diffs["a"] == 1 and diffs["b"] == 3 and diffs["c"] == 3
    assert not result.fallback_applied
    assert_arithmetic(result.labeled_graph)


def test_disconnected_graph_labeled_per_component():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    result = construct_arbitrary(g, ConstructionParams())
    report = verify_iasi(result.labeled_graph)
    assert report.is_iasi


def test_edge_cardinalities_match_prediction():
    """Every constructed edge obeys the m + k(n-1) closed form."""
    for graph in (path_graph(4), cycle_graph(5), complete_graph(4), star_graph(6)):
        result = construct_arbitrary(
            graph, ConstructionParams(multiplier_policy="maximal", seed=5, label_size_range=(3, 4))
        )
        lg = result.labeled_graph
        for (u, v), label in lg.edge_labels.items():
            du, dv = lg.vertex_labels[u].difference, lg.vertex_labels[v].difference
            (small, dsmall), (big, dbig) = sorted(
                [(u, du), (v, dv)], key=lambda t: t[1]
            )
            k = dbig // dsmall
            m, n = len(lg.vertex_labels[small]), len(lg.vertex_labels[big])
            assert dbig % dsmall == 0
            assert len(label) == predicted_edge_cardinality(m, n, k)


@st.composite
def deep_graphs(draw):
    """A path or a random recursive tree on 2..200 vertices."""
    n = draw(st.integers(2, 200))
    if draw(st.booleans()):
        return path_graph(n)
    names = [f"t{i:03d}" for i in range(n)]
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    return Graph(names, [(names[p], names[i]) for i, p in enumerate(parents, 1)])


@given(
    deep_graphs(),
    st.sampled_from(["fixed", "random", "maximal"]),
    st.tuples(st.integers(3, 6), st.integers(3, 6)).map(sorted).map(tuple),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_automatic_offsets_always_succeed(graph, policy, size_range, seed):
    """The docstring contract: no LabelOverflowError, and every check passes."""
    result = construct_arbitrary(
        graph,
        ConstructionParams(multiplier_policy=policy, seed=seed, label_size_range=size_range),
    )
    lg = result.labeled_graph
    assert lg.graph == graph
    assert_arithmetic(lg)
    assert check_multiplier_condition(lg).ok
    assert check_gcd_invariant(lg).ok


@st.composite
def small_graphs(draw):
    """Any graph on up to 8 vertices of one- or two-letter names, often disconnected."""
    names = st.text(alphabet="abcd", min_size=1, max_size=2)
    edges = draw(
        st.lists(
            st.tuples(names, names).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=8,
            unique_by=frozenset,
        )
    )
    return Graph({v for e in edges for v in e}, edges)


def reference_bfs_order(graph):
    """Breadth-first from the smallest unvisited vertex, neighbours in sorted order."""
    neighbours = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    order = []
    for root in sorted(graph.vertices):
        if root in order:
            continue
        queue = [root]
        while queue:
            v = queue.pop(0)
            if v not in order:
                order.append(v)
                queue += sorted(neighbours[v])
    return order


@given(
    small_graphs(),
    st.sampled_from(["fixed", "random", "maximal"]),
    st.tuples(st.integers(3, 6), st.integers(3, 6)).map(sorted).map(tuple),
    st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_first_terms_follow_the_breadth_first_order(graph, policy, size_range, seed):
    """Sorting the vertices by label ``first`` gives the construction's traversal."""
    result = construct_arbitrary(
        graph,
        ConstructionParams(multiplier_policy=policy, seed=seed, label_size_range=size_range),
    )
    labels = result.labeled_graph.vertex_labels
    firsts = [labels[v].first for v in graph.vertices]
    assert len(set(firsts)) == len(firsts)
    assert sorted(graph.vertices, key=lambda v: labels[v].first) == reference_bfs_order(graph)


def test_deep_path_caps_multipliers():
    result = construct_arbitrary(
        path_graph(48), ConstructionParams(multiplier_policy="maximal", label_size_range=(3, 6))
    )
    capped = result.capped
    assert capped
    assert_arithmetic(result.labeled_graph)
    assert check_multiplier_condition(result.labeled_graph).ok
    # a capped vertex keeps its parent's difference, k = 1
    labels = result.labeled_graph.vertex_labels
    order = path_graph(48).vertices
    for v in capped:
        parent = order[order.index(v) - 1]
        assert labels[v].difference == labels[parent].difference


def test_catalog_graphs_never_hit_the_cap():
    for graph in enumerate_connected_graphs(5):
        for policy in ("fixed", "random", "maximal"):
            result = construct_arbitrary(
                graph, ConstructionParams(multiplier_policy=policy, seed=0)
            )
            assert result.capped == (), (graph, policy)


def test_capped_multiplier_leaves_rng_draws_alone():
    # replay the documented draws on a path: sizes in traversal order, then one
    # multiplier per later vertex; a capped vertex keeps its parent's difference
    # and every other vertex gets exactly the drawn multiple
    params = ConstructionParams(multiplier_policy="random", seed=4, label_size_range=(3, 6))
    result = construct_arbitrary(path_graph(60), params)
    labels = result.labeled_graph.vertex_labels
    order = path_graph(60).vertices
    capped = set(result.capped)
    assert capped
    rng = random.Random(params.seed)
    sizes = [rng.randint(3, 6) for _ in order]
    assert sizes == [len(labels[v]) for v in order]
    for i in range(1, len(order)):
        k = rng.randint(1, sizes[i - 1])
        parent_d = labels[order[i - 1]].difference
        expected = parent_d if order[i] in capped else k * parent_d
        assert labels[order[i]].difference == expected


@given(
    st.integers(0, 2**64 - 1),
    st.tuples(st.integers(3, 8), st.integers(0, 4)).map(lambda t: (t[0], t[0] + t[1])),
    st.sampled_from(["fixed", "random", "maximal"]),
    st.integers(2, 30),
)
@settings(max_examples=150, deadline=None)
def test_draws_replay_randint(seed, size_range, policy, n):
    """Sizes, then the ``random`` policy's multipliers, are random.Random(seed).randint's
    draws; with one label size, ``fixed`` and ``maximal`` draw nothing."""
    graph = path_graph(n)
    order = graph.vertices
    params = ConstructionParams(label_size_range=size_range, multiplier_policy=policy, seed=seed)
    result = construct_arbitrary(graph, params)
    labels = result.labeled_graph.vertex_labels
    lo, hi = size_range
    rng = random.Random(seed)
    sizes = [lo if lo == hi else rng.randint(lo, hi) for _ in order]
    assert [labels[v].length for v in order] == sizes
    if policy == "random":
        for i in range(1, n):
            k = rng.randint(1, sizes[i - 1])
            parent_d = labels[order[i - 1]].difference
            expected = parent_d if order[i] in result.capped else k * parent_d
            assert labels[order[i]].difference == expected
    elif lo == hi:
        unseeded = ConstructionParams(label_size_range=size_range, multiplier_policy=policy)
        assert result == construct_arbitrary(graph, unseeded)


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_any_seed_constructs_arithmetic(seed):
    result = construct_arbitrary(
        cycle_graph(5),
        ConstructionParams(multiplier_policy="random", seed=seed, label_size_range=(3, 6)),
    )
    assert_arithmetic(result.labeled_graph)


# -------------------------------------------------------- construct_complete


def test_complete_frozen_example():
    lg = construct_complete((3, 3, 6, 6), sizes=3)
    assert_arithmetic(lg)
    diffs = {v: detect_ap(s).difference for v, s in lg.vertex_labels.items()}
    assert diffs == {"a": 3, "b": 3, "c": 6, "d": 6}
    # first terms 1, 2, 3, 5 times the stride 2 * (2 * 6) + 1 = 25
    labels = {v: list(s) for v, s in lg.vertex_labels.items()}
    assert labels == {
        "a": [25, 28, 31], "b": [50, 53, 56], "c": [75, 81, 87], "d": [125, 131, 137]
    }


def test_complete_multiplier_bound():
    # the first violation check_multiplier_condition finds, edge, k and bound
    with pytest.raises(ValueError, match=r"edge \('a', 'c'\): multiplier 4 exceeds .* bound 3"):
        construct_complete((3, 3, 12, 12), sizes=3)
    with pytest.raises(ValueError, match=r"edge \('a', 'b'\): difference 3 is not a multiple of 2"):
        construct_complete((2, 3), sizes=4)
    # the bound is the smaller-difference label's size, not the larger's
    construct_complete((1, 4), sizes=(4, 3))
    with pytest.raises(ValueError, match="multiplier 4 exceeds the cardinality bound 3"):
        construct_complete((1, 4), sizes=(3, 4))


def test_complete_input_validation():
    with pytest.raises(ValueError):
        construct_complete(())  # no vertex
    with pytest.raises(ValueError):
        construct_complete((1,))  # K1 has no edge
    for differences in [(1, 0), (1, -1), (True, 1), (1, 2.0), (1, 1, True, True)]:
        with pytest.raises(ValueError, match="differences must all be integers"):
            construct_complete(differences)
    with pytest.raises(ValueError, match="expected 4 label sizes"):
        construct_complete((1, 1, 1, 1), sizes=(3, 3, 3))
    with pytest.raises(ValueError, match="label sizes"):
        construct_complete((1, 1, 2, 2), sizes=(3, 3.0, 3, 3))
    with pytest.raises(ValueError, match="label sizes"):
        construct_complete((1, 1), sizes=2)


def test_complete_overflow_before_the_multiplier_check():
    # the multiplier 2**62 breaks the bound 3, but the layout's stride,
    # 2 * (2 * 2**62) + 1, is already past 64 bits
    with pytest.raises(LabelOverflowError):
        construct_complete((1, 2**62), sizes=3)


def test_one_rule_refuses_a_last_term_past_64_bits():
    """APSet and both constructors refuse a label whose last term is U64_MAX + 1
    with one message, and a last term of exactly U64_MAX is built."""
    refused = pytest.raises(LabelOverflowError, match="^progression exceeds the 64-bit range$")
    assert APSet(U64_MAX - 6, 3, 3).last == U64_MAX
    with refused:
        APSet(U64_MAX - 5, 3, 3)
    # K2 with spans 2 * (2**61 - 1) and 6: b starts at twice the stride
    # 2 * (2**62 - 2) + 1, so its last term is 2**64
    with refused:
        construct_complete((2**61 - 1, 3), sizes=3)
    # P4 at 60 terms: offsets 1, 2, 3, 5 and span x = 59 * d put the last
    # vertex's last term at 5 * (2x + 1) + x = 2**64, past every budget
    d = (2**64 - 5) // 11 // 59
    params = ConstructionParams(base_difference=d, label_size_range=(60, 60))
    assert d > _difference_budget(5, 60)
    with refused:
        construct_arbitrary(path_graph(4), params)
    # an edge sum passes U64_MAX before a constructed vertex label can reach
    # it, so the layout they share is what reaches it: offset 15 and span x
    # put the last term at 15 * (2x + 1) + x = 31x + 15
    x = (U64_MAX - 15) // 31
    assert _progression_labels(["a"], {"a": x // 2}, {"a": 3}, [15])["a"].last == U64_MAX


def test_complete_beyond_26_vertices():
    lg = construct_complete((1,) * 20 + (3,) * 20, sizes=3)
    assert len(lg.graph.vertices) == 40
    assert_arithmetic(lg)
    assert check_multiplier_condition(lg).ok


def test_complete_single_band():
    lg = construct_complete((2,) * 5, sizes=4)
    assert_arithmetic(lg)
    assert {detect_ap(s).difference for s in lg.vertex_labels.values()} == {2}


def test_complete_per_vertex_sizes():
    lg = construct_complete((1, 3, 3, 3), sizes=(3, 4, 5, 6))
    assert_arithmetic(lg)
    assert [len(lg.vertex_labels[v]) for v in lg.graph.vertices] == [3, 4, 5, 6]


# divisor-rich differences: chains of ratio 2 and 3 up to 16
BAND_BOX = (1, 2, 3, 4, 6, 8, 12, 16)


def band_law_cases():
    """(differences, sizes) on K3-K5: uniform sizes 3..8, then mixed sizes."""
    for n, size_choices in [(3, None), (4, None), (5, None), (3, (3, 4, 5)), (4, (3, 4))]:
        if size_choices is None:
            size_tuples = [(l,) * n for l in range(3, 9)]
        else:
            size_tuples = list(itertools.product(size_choices, repeat=n))
        for differences in itertools.combinations_with_replacement(BAND_BOX, n):
            for sizes in size_tuples:
                yield differences, sizes


def test_complete_band_law():
    # construct_complete succeeds exactly when every edge of the layout is a
    # progression by brute-force sums; no multiplier check is consulted here
    most_bands = {}
    cases = 0
    for differences, sizes in band_law_cases():
        cases += 1
        vertices = complete_graph(len(differences)).vertices
        layout = _progression_labels(
            vertices,
            dict(zip(vertices, differences)),
            dict(zip(vertices, sizes)),
            distinct_sum_sequence(len(vertices)),
        )
        arithmetic = all(
            is_progression(brute_sumset(layout[u], layout[v]))
            for u, v in itertools.combinations(vertices, 2)
        )
        try:
            lg = construct_complete(differences, sizes=sizes)
        except ValueError:
            assert not arithmetic, (differences, sizes)
            continue
        assert arithmetic, (differences, sizes)
        assert lg.vertex_labels == layout
        if len(set(sizes)) == 1:
            key = (len(differences), sizes[0])
            most_bands[key] = max(most_bands.get(key, 0), len(set(differences)))
    assert cases == 15972
    # with one label size l, K_n takes min(n, floor(log2 l) + 1) distinct differences
    assert most_bands == {
        (n, l): min(n, l.bit_length()) for n in (3, 4, 5) for l in range(3, 9)
    }


# --------------------------------------------------------------- restriction


def test_restriction_preserves_arithmetic():
    lg = construct_complete((1, 1, 2, 2), sizes=3)
    spanning_path = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    restricted = LabeledGraph(spanning_path, lg.vertex_labels)
    assert_arithmetic(restricted)
    assert restricted.edge_labels == {e: lg.edge_labels[e] for e in spanning_path.edges}


def test_restriction_to_single_edge():
    lg = construct_complete((1, 1, 2, 2), sizes=3)
    edge = Graph(["a", "b"], [("a", "b")])
    assert_arithmetic(LabeledGraph(edge, {v: lg.vertex_labels[v] for v in edge.vertices}))
