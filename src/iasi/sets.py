"""Finite sets of non-negative integers, sumsets, and AP detection.

Everything downstream (labelings, classification, construction) reduces to
two facts about finite integer sets:

* the sumset A+B = {a+b : a in A, b in B}, and
* whether a set's elements form an arithmetic progression.

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
    place elements are checked: an IntegerSet argument is returned as is,
    and the package's own operations build their results unchecked.

    A nonempty set whose elements form a progression is an ``APSet``, so a
    label's progression facts are read from it in O(1).
    """

    __slots__ = ()

    def __new__(cls, elements=()):
        if isinstance(elements, IntegerSet):
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


class APSet(IntegerSet):
    """A nonempty IntegerSet whose elements form an arithmetic progression.

    Every such set is an APSet (singletons and pairs included) and no other
    set is; every constructor in this module keeps that rule. The public
    constructor builds {first + i*difference : 0 <= i < length}. Its facts
    are read from the elements: ``first``, ``difference`` and ``length``.
    A singleton has no usable common difference; it carries ``difference``
    None, and any attempt to compare or do arithmetic with that sentinel
    fails loudly (TypeError) rather than acting like zero.
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
        d = difference or 1
        if first + (length - 1) * d > U64_MAX:
            raise LabelOverflowError("progression exceeds the 64-bit range")
        return tuple.__new__(APSet, range(first, first + length * d, d))

    def __getnewargs__(self):
        return self.first, self.difference, self.length

    @property
    def first(self) -> int:
        return self[0]

    @property
    def difference(self) -> int | None:
        return self[1] - self[0] if len(self) > 1 else None

    @property
    def length(self) -> int:
        return len(self)


def _unchecked(elements) -> IntegerSet:
    """An IntegerSet of integers already known to be in range, typed by its shape."""
    ordered = sorted(set(elements))
    n = len(ordered)
    if n > 2:
        first, last, d = ordered[0], ordered[-1], ordered[1] - ordered[0]
        # the span test first, so the range below never outgrows the set
        progression = last - first == (n - 1) * d and ordered == list(range(first, last + 1, d))
    else:
        progression = n > 0
    return tuple.__new__(APSet if progression else IntegerSet, ordered)


def _difference(label: IntegerSet) -> int | None:
    """A label's common difference: an APSet's (None for a singleton), else None."""
    return label.difference if type(label) is APSet else None


def sumset(a, b) -> IntegerSet:
    """Pointwise sums of two nonempty integer sets.

    |A+B| is at least max(|A|, |B|) and at most |A|*|B|. When A and B are
    progressions with differences d and k*d, 1 <= k <= |A|, A+B is the
    progression with difference d from min A + min B to max A + max B
    (|A| + k(|B|-1) terms), and it is built in that closed form; a singleton
    operand shifts the other one. Every other sumset is summed exactly.
    """
    # this runs once per edge: two progressions are checked nonempty sets,
    # and any other checked set skips the constructor call
    ta, tb = type(a), type(b)
    if ta is not APSet or tb is not APSet:
        a = a if isinstance(a, IntegerSet) else IntegerSet(a)
        b = b if isinstance(b, IntegerSet) else IntegerSet(b)
        if not a or not b:
            raise ValueError("sumset requires nonempty operands")
        ta, tb = type(a), type(b)
    top = a[-1] + b[-1]
    if top > U64_MAX:
        raise LabelOverflowError(
            f"maximum sum {a[-1]} + {b[-1]} exceeds the 64-bit range"
        )
    if len(a) == 1 or len(b) == 1:
        point, other = (a, b) if len(a) == 1 else (b, a)
        return tuple.__new__(type(other), [point[0] + x for x in other])
    if ta is APSet and tb is APSet:
        if b[1] - b[0] < a[1] - a[0]:
            a, b = b, a
        d = a[1] - a[0]
        if _bounded_multiple(d, b[1] - b[0], len(a)):
            return tuple.__new__(APSet, range(a[0] + b[0], top + 1, d))
    return _unchecked(x + y for x in a for y in b)


def detect_ap(s) -> APSet | None:
    """The progression ``s`` is, or None.

    Singletons are degenerate progressions (difference sentinel None); a
    two-element set is the progression with difference max - min. The
    answer is the checked set itself when its type says it is an APSet.
    """
    s = IntegerSet(s)
    if not s:
        raise ValueError("cannot detect a progression in the empty set")
    return s if type(s) is APSet else None


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
