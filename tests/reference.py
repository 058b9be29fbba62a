"""Brute-force references the differential tests share.

Plain loops and sorted lists, independent of the library internals, so a
bug in the package cannot hide in the expectations. Not a ``test_*.py``
file, so pytest collects nothing from it.
"""

from iasi import classify_arithmetic


def brute_sumset(a, b):
    return sorted({x + y for x in a for y in b})


def is_progression(elements) -> bool:
    """At most one distinct gap between sorted neighbours; the empty set raises."""
    s = sorted(elements)
    assert s, "is_progression of the empty set"
    return len({y - x for x, y in zip(s, s[1:])}) <= 1


def assert_arithmetic(lg):
    report = classify_arithmetic(lg)
    assert report.is_iasi, report.collision
    assert report.arithmetic
    return report
