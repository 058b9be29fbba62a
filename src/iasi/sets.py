"""Finite sets of non-negative integers, sumsets, and AP detection.

Everything downstream (labelings, classification, construction) reduces to
two facts about finite integer sets:

* the sumset A+B = {a+b : a in A, b in B}, and
* whether a set's elements form an arithmetic progression.

A label has one of two types. A progression is an ``APSet``, held as its
terms (first, difference, length) and never as its elements, so the sumset
of two progressions that the lemma makes a progression again is built in
O(1) at any length. Any other set is an ``IntegerSet``, the sorted tuple of
its elements.

Elements are kept inside the 64-bit unsigned range so labels survive any
serialization boundary; arithmetic that would leave the range raises
LabelOverflowError instead of silently widening.
"""

from __future__ import annotations

from .errors import LabelOverflowError

U64_MAX = 2**64 - 1

__all__ = [
    "U64_MAX",
    "IntegerSet",
    "APSet",
    "sumset",
    "detect_ap",
    "predicted_edge_cardinality",
]


def _is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class IntegerSet(tuple):
    """An immutable, sorted, duplicate-free tuple of non-negative integers.

    The empty set is representable (it is rejected by the operations that
    need nonempty operands, not by the type). The constructor is the one
    place elements are checked: a label (an IntegerSet or an ``APSet``)
    is returned as is, and the package's own operations build their results
    unchecked.

    A nonempty set whose elements form a progression is built as an
    ``APSet``, which holds only its progression's terms, never its elements;
    so an IntegerSet is always a set that is not a progression (or empty).
    """

    __slots__ = ()

    def __new__(cls, elements=()):
        if isinstance(elements, (IntegerSet, APSet)):
            return elements
        seen = set()
        for e in elements:
            if not _is_int(e):
                raise TypeError(f"set elements must be integers, got {e!r}")
            if e < 0:
                raise ValueError(f"set elements must be non-negative, got {e}")
            if e > U64_MAX:
                raise LabelOverflowError(f"element {e} exceeds the 64-bit range")
            seen.add(e)
        return _unchecked(seen)

    def __repr__(self):
        return "IntegerSet({%s})" % ", ".join(str(e) for e in self)


class _Progression:
    """The slots of an ``APSet``; only ``_ap`` makes one, to fill and retype it."""

    __slots__ = ("first", "difference", "length", "last")


class APSet(_Progression):
    """A nonempty set of integers that form an arithmetic progression.

    Every such label is an APSet (singletons and pairs included) and no
    other is; every constructor in this module keeps that rule, and
    ``IntegerSet`` returns an APSet argument as is. An APSet holds its
    ``first`` term, common ``difference``, ``length`` and ``last`` term,
    never its elements, so it costs O(1) at any length, as does a sumset the
    lemma makes a progression.
    A singleton has no usable common difference; it carries ``difference``
    None, and any attempt to compare or do arithmetic with that sentinel
    fails loudly (TypeError) rather than acting like zero.

    It reads as the sorted sequence of its elements: ``len``, iteration,
    indexing (a slice gives a plain tuple) and ``in``, all but iteration in
    O(1) for integer arguments; its repr is an IntegerSet's, and it pickles
    and copies as its terms. It is immutable, and it compares by (first,
    difference, length) and hashes by its first term and length: two
    progressions are equal exactly when their elements are, and an APSet
    equals no tuple, so no IntegerSet.
    """

    __slots__ = ()

    def __new__(cls, first: int, difference: int | None, length: int):
        if not _is_int(first) or first < 0:
            raise ValueError(f"first term must be a non-negative integer, got {first!r}")
        if not _is_int(length) or length < 1:
            raise ValueError(f"length must be a positive integer, got {length!r}")
        if length == 1:
            if difference is not None:
                raise ValueError("a singleton progression has no common difference")
        elif not _is_int(difference) or difference < 1:
            raise ValueError(f"common difference must be a positive integer, got {difference!r}")
        return _progression(first, difference, length)

    def __setattr__(self, name, value):
        raise AttributeError(f"APSet is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"APSet is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return APSet, (self.first, self.difference, self.length)

    def __eq__(self, other):
        if type(other) is not APSet:
            return NotImplemented
        return (
            self.first == other.first
            and self.difference == other.difference
            and self.length == other.length
        )

    def __hash__(self):
        return hash(self.first) ^ self.length

    def __len__(self):
        return self.length

    def __iter__(self):
        return iter(_elements(self))

    def __getitem__(self, index):
        items = _elements(self)[index]
        return tuple(items) if isinstance(items, range) else items

    def __contains__(self, value):
        return value in _elements(self)

    __repr__ = IntegerSet.__repr__


_new = object.__new__


def _ap(first: int, difference: int | None, length: int, last: int) -> APSet:
    """The APSet of these terms, unchecked: the caller knows them consistent
    and within 64 bits. It is filled as a ``_Progression`` and then retyped,
    which costs less than going round APSet's own ``__setattr__``."""
    label = _new(_Progression)
    label.first = first
    label.difference = difference
    label.length = length
    label.last = last
    label.__class__ = APSet
    return label


def _progression(first: int, difference: int | None, length: int) -> APSet:
    """The APSet of these checked terms, its last term computed here.

    This is the one owner of the 64-bit rule on a new progression: a last
    term beyond U64_MAX raises LabelOverflowError. ``APSet`` calls it after
    its argument checks, and the constructors call it on terms they computed.
    """
    last = first + (length - 1) * (difference or 1)
    if last > U64_MAX:
        raise LabelOverflowError("progression exceeds the 64-bit range")
    return _ap(first, difference, length, last)


def _elements(label):
    """A label's elements in ascending order: an APSet's as a ``range``
    (O(1) to build, index and search), any other label as itself."""
    if type(label) is APSet:
        return range(label.first, label.last + 1, label.difference or 1)
    return label


def _unchecked(elements) -> IntegerSet:
    """A label of integers already known to be in range, typed by its shape."""
    ordered = sorted(set(elements))
    n = len(ordered)
    if n > 2:
        first, last, d = ordered[0], ordered[-1], ordered[1] - ordered[0]
        # the span test first, so the range below never outgrows the set
        if last - first == (n - 1) * d and ordered == list(range(first, last + 1, d)):
            return _ap(first, d, n, last)
        return tuple.__new__(IntegerSet, ordered)
    if n:
        first, last = ordered[0], ordered[-1]
        return _ap(first, last - first or None, n, last)
    return tuple.__new__(IntegerSet)


def _difference(label) -> int | None:
    """A label's common difference: an APSet's (None for a singleton), else None."""
    return label.difference if type(label) is APSet else None


def _overflow(high_a: int, high_b: int) -> LabelOverflowError:
    return LabelOverflowError(f"maximum sum {high_a} + {high_b} exceeds the 64-bit range")


def sumset(a, b) -> IntegerSet:
    """Pointwise sums of two nonempty integer sets.

    |A+B| is at least max(|A|, |B|) and at most |A|*|B|. When A and B are
    progressions with differences d and k*d, 1 <= k <= |A|, A+B is the
    progression with difference d from min A + min B to max A + max B
    (|A| + k(|B|-1) terms), and it is built from those terms in O(1); a
    singleton operand shifts the other one. Every other sumset is summed
    exactly.
    """
    # this runs once per edge: two progressions are checked nonempty labels,
    # and any other label skips the constructor call
    if type(a) is not APSet or type(b) is not APSet:
        a = a if isinstance(a, (IntegerSet, APSet)) else IntegerSet(a)
        b = b if isinstance(b, (IntegerSet, APSet)) else IntegerSet(b)
        if not a or not b:
            raise ValueError("sumset requires nonempty operands")
        if type(a) is not APSet or type(b) is not APSet:
            return _sumset_with_a_non_progression(a, b)
    top = a.last + b.last
    if top > U64_MAX:
        raise _overflow(a.last, b.last)
    # a difference is None exactly for a singleton, which shifts the other label
    da, db = a.difference, b.difference
    if da is None:
        return _ap(a.first + b.first, db, b.length, top)
    if db is None:
        return _ap(a.first + b.first, da, a.length, top)
    if db < da:
        a, b = b, a
        da, db = db, da
    if _bounded_multiple(da, db, a.length):
        first = a.first + b.first
        return _ap(first, da, (top - first) // da + 1, top)
    return _unchecked(x + y for x in _elements(a) for y in _elements(b))


def _sumset_with_a_non_progression(a, b) -> IntegerSet:
    """``sumset`` of two nonempty labels, not both APSets: a singleton (an
    APSet) shifts the other label, and any other pair is summed exactly."""
    ea, eb = _elements(a), _elements(b)
    if ea[-1] + eb[-1] > U64_MAX:
        raise _overflow(ea[-1], eb[-1])
    if len(ea) == 1 or len(eb) == 1:
        point, other = (ea[0], eb) if len(ea) == 1 else (eb[0], ea)
        return tuple.__new__(IntegerSet, [point + x for x in other])
    return _unchecked(x + y for x in ea for y in eb)


def detect_ap(s) -> APSet | None:
    """The progression ``s`` is, or None.

    Singletons are degenerate progressions (difference sentinel None); a
    two-element set is the progression with difference max - min. The
    answer is the checked set itself when its type says it is an APSet.
    """
    s = IntegerSet(s)
    if type(s) is APSet:
        return s
    if not s:
        raise ValueError("cannot detect a progression in the empty set")
    return None


def predicted_edge_cardinality(m: int, n: int, k: int) -> int:
    """Closed-form |A+B| when A, B are progressions with differences d, k*d.

    Here m = |A| (the set with the smaller difference), n = |B|, and the
    multiplier k must satisfy 1 <= k <= m for the blocks of sums to tile
    without gaps.
    """
    for name, value in (("m", m), ("n", n), ("k", k)):
        if not _is_int(value):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if m < 1 or n < 1:
        raise ValueError(f"cardinalities must be positive, got m={m}, n={n}")
    if not 1 <= k <= m:
        raise ValueError(f"multiplier k={k} outside [1, m={m}]")
    return m + k * (n - 1)


def _bounded_multiple(low: int, high: int, bound: int) -> bool:
    """True when ``high`` = k * ``low`` for an integer k <= ``bound``.

    For progressions with differences ``low`` <= ``high``, where ``bound`` is
    the size of the ``low`` one, this is exactly when their sumset is again a
    progression: the condition on k in predicted_edge_cardinality.
    """
    return high % low == 0 and high // low <= bound
