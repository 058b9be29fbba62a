"""Sumset arithmetic, compatibility classes, progression detection.

The brute-force oracles, ``reference``'s and the set literals here, are
deliberately independent of the library internals, so a bug in the package
cannot hide in the expectations.
"""

import copy
import pickle
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iasi import (
    APSet,
    IntegerSet,
    LabelOverflowError,
    U64_MAX,
    detect_ap,
    predicted_edge_cardinality,
    sumset,
)
from iasi import sets as sets_module
from iasi.sets import _bounded_multiple
from reference import brute_sumset, is_progression


small_sets = st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=8)


# ---------------------------------------------------------------- IntegerSet


def test_integer_set_sorts_and_dedupes():
    s = IntegerSet([5, 1, 5, 3, 1])
    assert tuple(s) == (1, 3, 5)
    assert 3 in s and 2 not in s


def test_integer_set_rejects_bad_elements():
    with pytest.raises(ValueError):
        IntegerSet([1, -2])
    with pytest.raises(TypeError):
        IntegerSet([1, "2"])
    with pytest.raises(TypeError):
        IntegerSet([True])
    with pytest.raises(LabelOverflowError):
        IntegerSet([U64_MAX + 1])


def test_integer_set_returns_checked_argument_unchanged():
    s = IntegerSet([3, 1])
    assert IntegerSet(s) is s


def test_integer_set_is_hashable_value():
    assert IntegerSet([1, 2]) == IntegerSet((2, 1))
    assert hash(IntegerSet([1, 2])) == hash(IntegerSet([2, 1]))


# -------------------------------------------------------------------- sumset


def test_sumset_frozen_examples():
    assert tuple(sumset({0, 1, 2}, {0, 2, 4})) == (0, 1, 2, 3, 4, 5, 6)
    assert tuple(sumset({1, 2}, {3, 4})) == (4, 5, 6)
    assert tuple(sumset({0}, {7})) == (7,)


def test_sumset_rejects_empty():
    with pytest.raises(ValueError):
        sumset(set(), {1})
    with pytest.raises(ValueError):
        sumset({1}, [])


def test_sumset_overflow():
    with pytest.raises(LabelOverflowError):
        sumset({U64_MAX}, {1})
    # within range is fine
    assert tuple(sumset({U64_MAX - 1}, {1})) == (U64_MAX,)


@given(small_sets, small_sets)
def test_sumset_matches_brute_force(a, b):
    assert list(sumset(a, b)) == brute_sumset(a, b)


@given(small_sets, small_sets)
def test_sumset_commutative(a, b):
    assert sumset(a, b) == sumset(b, a)


@given(small_sets, small_sets, small_sets)
@settings(max_examples=60)
def test_sumset_associative(a, b, c):
    assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))


@given(small_sets)
def test_sumset_identity_is_zero_singleton(a):
    assert sumset(a, {0}) == IntegerSet(a)


@given(small_sets, small_sets)
def test_sumset_cardinality_bounds(a, b):
    size = len(sumset(a, b))
    assert max(len(a), len(b)) <= size <= len(a) * len(b)
    # the lower bound is in fact |A| + |B| - 1 over the integers
    assert size >= len(a) + len(b) - 1


# ------------------------------------------------------------- compatibility


def compatibility_classes(a, b):
    """A x B grouped by sum: each sum, in the order first reached, maps to its pairs."""
    classes = {}
    for x in sorted(a):
        for y in sorted(b):
            classes.setdefault(x + y, []).append((x, y))
    return classes


def test_compatibility_frozen_example():
    classes = compatibility_classes({1, 2}, {3, 4})
    assert classes == {4: [(1, 3)], 5: [(1, 4), (2, 3)], 6: [(2, 4)]}
    assert len(sumset({1, 2}, {3, 4})) == len(classes) == 3


def test_compatibility_equal_sets():
    classes = compatibility_classes({0, 1, 2}, {0, 1, 2})
    assert len(sumset({0, 1, 2}, {0, 1, 2})) == len(classes) == 5
    assert classes[2] == [(0, 2), (1, 1), (2, 0)]
    assert max(len(pairs) for pairs in classes.values()) == 3


@given(small_sets, small_sets)
def test_compatibility_index_equals_sumset_cardinality(a, b):
    classes = compatibility_classes(a, b)
    assert len(sumset(a, b)) == len(classes) == len(brute_sumset(a, b))
    # the sums the classes are keyed by are the sumset, in its order
    assert list(sumset(a, b)) == sorted(classes)


@given(small_sets, small_sets)
def test_compatibility_class_sizes_bounded(a, b):
    classes = compatibility_classes(a, b)
    assert max(len(pairs) for pairs in classes.values()) <= min(len(a), len(b))
    # classes partition A x B
    pairs = [pair for members in classes.values() for pair in members]
    assert sorted(pairs) == sorted((x, y) for x in a for y in b)


# ----------------------------------------------------------------- detect_ap


def test_detect_ap_examples():
    assert detect_ap({3, 5, 7, 9}) == APSet(first=3, difference=2, length=4)
    assert detect_ap({0, 1, 3}) is None
    assert detect_ap({2, 7}) == APSet(first=2, difference=5, length=2)


def test_detect_ap_singleton_sentinel():
    ap = detect_ap({4})
    assert ap == APSet(first=4, difference=None, length=1)
    with pytest.raises(TypeError):
        ap.difference < 1  # the sentinel must not act like a number


def test_detect_ap_empty_rejected():
    with pytest.raises(ValueError):
        detect_ap(set())


def test_apset_validation():
    with pytest.raises(ValueError):
        APSet(first=0, difference=0, length=3)
    with pytest.raises(ValueError):
        APSet(first=0, difference=2, length=1)  # singleton must use the sentinel
    with pytest.raises(ValueError):
        APSet(first=-1, difference=1, length=2)
    with pytest.raises(LabelOverflowError):
        APSet(first=U64_MAX, difference=1, length=2)
    # bools are not integers here
    with pytest.raises(ValueError, match="first term"):
        APSet(first=True, difference=True, length=3)
    with pytest.raises(ValueError, match="common difference"):
        APSet(first=0, difference=True, length=3)
    with pytest.raises(ValueError, match="length"):
        APSet(first=0, difference=1, length=True)


def test_apset_singleton_overflow_rejected():
    with pytest.raises(LabelOverflowError):
        APSet(first=U64_MAX + 1, difference=None, length=1)


progression_sets = st.builds(
    lambda first, d, length: set(range(first, first + d * length, d)),
    st.integers(0, 60), st.integers(1, 9), st.integers(1, 8),
)


@given(st.one_of(small_sets, progression_sets))
def test_detect_ap_matches_brute_force(s):
    s = sorted(s)
    ap = detect_ap(s)
    if len(s) == 1:
        assert ap == APSet(s[0], None, 1)
    elif is_progression(s):
        assert ap == APSet(s[0], s[1] - s[0], len(s))
    else:
        assert ap is None


@given(
    st.integers(0, 50), st.integers(1, 9), st.integers(1, 12)
)
def test_detect_ap_round_trips_expansion(first, d, length):
    ap = APSet(first, d if length > 1 else None, length)
    assert detect_ap(ap) == ap


# ---------------------------------------------- progression sumset structure


@given(
    st.integers(0, 30), st.integers(0, 30), st.integers(1, 8),
    st.integers(1, 6), st.integers(1, 6),
)
def test_equal_difference_sumset_is_ap(a, b, d, m, n):
    """Same common difference: A+B is a progression of m+n-1 terms, same d."""
    A = APSet(a, d if m > 1 else None, m)
    B = APSet(b, d if n > 1 else None, n)
    s = brute_sumset(A, B)
    assert len(s) == m + n - 1
    if len(s) > 1:
        assert is_progression(s) and s[1] - s[0] == d


@given(
    st.integers(0, 20), st.integers(0, 20), st.integers(1, 7),
    st.integers(2, 8), st.integers(2, 8), st.data(),
)
def test_bounded_multiple_difference_sumset(a, b, d, m, n, data):
    """Differences d and k*d with k <= m give exactly m + k(n-1) sums, still an AP."""
    k = data.draw(st.integers(1, m), label="k")
    A = APSet(a, d, m)
    B = APSet(b, k * d, n)
    s = brute_sumset(A, B)
    assert len(s) == predicted_edge_cardinality(m, n, k) == m + k * (n - 1)
    assert is_progression(s) and s[1] - s[0] == d
    assert _bounded_multiple(d, k * d, m) == is_progression(s)


@given(
    st.integers(0, 20), st.integers(0, 20), st.integers(1, 5),
    st.integers(3, 7), st.integers(3, 7), st.data(),
)
def test_excessive_multiplier_breaks_ap(a, b, d, m, n, data):
    """k beyond |A| leaves gaps: the sumset is not a progression."""
    k = data.draw(st.integers(m + 1, m + 6), label="k")
    A = APSet(a, d, m)
    B = APSet(b, k * d, n)
    assert not is_progression(brute_sumset(A, B))
    assert _bounded_multiple(d, k * d, m) == is_progression(brute_sumset(A, B))


@given(
    st.integers(0, 20), st.integers(0, 20),
    st.integers(2, 6), st.integers(3, 12),
    st.integers(3, 7), st.integers(3, 7),
)
def test_non_multiple_difference_breaks_ap(a, b, di, dj, m, n):
    """Incommensurable differences (neither divides the other) never give an AP."""
    assume(dj > di and dj % di != 0)
    A = APSet(a, di, m)
    B = APSet(b, dj, n)
    assert not is_progression(brute_sumset(A, B))
    assert _bounded_multiple(di, dj, m) == is_progression(brute_sumset(A, B))


@given(
    st.integers(0, 20), st.integers(0, 20), st.integers(1, 6),
    st.integers(2, 7), st.integers(2, 7),
)
def test_maximal_multiplier_reaches_product(a, b, d, m, n):
    """k = m saturates: |A+B| = m*n, the strong case."""
    A = APSet(a, d, m)
    B = APSet(b, m * d, n)
    assert len(brute_sumset(A, B)) == m * n


# The lemma in closed form, against the brute-force sum. Bases reach the
# middle of the 64-bit range, and past it, where every sum overflows.
_BASES = (0, U64_MAX // 2 - 1000, U64_MAX // 2 + 1)


@st.composite
def _progression_pairs(draw):
    """Progressions A, B with differences d and some h, in either order.

    h is k*d for k = 1, |A| (the boundary), |A|+1 or any k up to |A|+3,
    or an arbitrary difference (mostly not a multiple); lengths reach 1.
    """
    base = draw(st.sampled_from(_BASES), label="base")
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    d = draw(st.integers(1, 9))
    k = draw(st.one_of(st.just(1), st.just(m), st.just(m + 1), st.integers(1, m + 3)))
    h = draw(st.one_of(st.just(k * d), st.integers(1, 40)))
    a0, b0 = base + draw(st.integers(0, 50)), base + draw(st.integers(0, 50))
    pair = [list(range(a0, a0 + m * d, d)), list(range(b0, b0 + n * h, h))]
    if draw(st.booleans()):
        pair.reverse()
    return pair


@settings(max_examples=500)
@given(_progression_pairs())
def test_closed_form_sumset_matches_brute_force(pair):
    A, B = pair
    if A[-1] + B[-1] > U64_MAX:
        with pytest.raises(LabelOverflowError):
            sumset(A, B)
        return
    a, b = IntegerSet(A), IntegerSet(B)
    with patch.object(sets_module, "_unchecked", wraps=sets_module._unchecked) as exact:
        s = sumset(a, b)
    expected = brute_sumset(A, B)
    assert list(s) == expected
    assert (type(s) is APSet) == is_progression(expected)
    # two progressions sum to one exactly when the lemma applies, and only
    # the other pairs are summed element by element
    assert exact.called == (not is_progression(expected))


_HALF = U64_MAX // 2 + 1  # _HALF + _HALF == U64_MAX + 1


@pytest.mark.parametrize(
    "a, b",
    [
        (range(_HALF - 4, _HALF), range(_HALF - 4, _HALF + 4, 2)),  # closed form
        ([_HALF - 9, _HALF - 8, _HALF], [_HALF - 5, _HALF]),  # exact sum
        ([_HALF], [_HALF - 3, _HALF - 1, _HALF]),  # singleton shift
    ],
)
def test_sumset_overflow_on_every_path(a, b):
    with pytest.raises(LabelOverflowError):
        sumset(a, b)


# -------------------------------------------------- the progression subclass


@given(st.one_of(small_sets, progression_sets))
def test_label_type_marks_progressions_at_every_constructor(s):
    label = IntegerSet(s)
    expected = is_progression(s)
    assert (type(label) is APSet) == expected
    assert IntegerSet(label) is label
    assert repr(label) == "IntegerSet({%s})" % ", ".join(str(e) for e in sorted(s))
    plain = tuple(sorted(s))
    assert tuple(label) == plain
    # an IntegerSet is the tuple of its elements; an APSet is its terms, and
    # it compares and hashes by them, so it equals no tuple of its elements
    assert (label == plain) == (not expected) and (label != plain) == expected
    for twin in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)):
        assert type(twin) is type(label) and twin == label and hash(twin) == hash(label)
    if expected:
        gap = plain[1] - plain[0] if len(plain) > 1 else None
        assert detect_ap(label) is label
        assert (label.first, label.difference, label.length) == (plain[0], gap, len(plain))
        built = APSet(plain[0], gap, len(plain))
        brute = IntegerSet(range(plain[0], plain[0] + len(plain) * (gap or 1), gap or 1))
        assert type(built) is APSet and built == brute and hash(built) == hash(brute)
        assert built != tuple.__new__(IntegerSet, plain)  # a non-progression never equals one
        twins = [pickle.loads(pickle.dumps(built, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.copy(built), copy.deepcopy(built)]:
            assert type(twin) is APSet and tuple(twin) == tuple(built)
    else:
        assert hash(label) == hash(plain)


@given(small_sets, st.one_of(small_sets, progression_sets))
def test_sumset_fallback_types_its_result(a, b):
    s = sumset(a, b)
    assert (type(s) is APSet) == is_progression(brute_sumset(a, b))


def test_empty_set_is_not_a_progression():
    assert type(IntegerSet()) is IntegerSet


@given(st.one_of(small_sets, progression_sets, st.just(set())))
def test_every_label_answers_its_difference_and_length(s):
    # both label types: the size, and the common difference of a progression
    # of two or more elements; None for a singleton or any other set
    label = IntegerSet(s)
    plain = sorted(s)
    gap = plain[1] - plain[0] if len(plain) > 1 and is_progression(plain) else None
    assert label.length == len(label) == len(plain)
    assert label.difference == gap


# --------------------------------------------- predicted_edge_cardinality


def test_predicted_edge_cardinality_frozen():
    assert predicted_edge_cardinality(4, 3, 2) == 8
    assert predicted_edge_cardinality(3, 3, 1) == 5
    assert predicted_edge_cardinality(5, 1, 1) == 5


def test_predicted_edge_cardinality_validation():
    with pytest.raises(ValueError):
        predicted_edge_cardinality(3, 3, 4)
    with pytest.raises(ValueError):
        predicted_edge_cardinality(3, 3, 0)
    with pytest.raises(ValueError):
        predicted_edge_cardinality(0, 3, 1)
    with pytest.raises(TypeError):
        predicted_edge_cardinality(3.0, 3, 1)
