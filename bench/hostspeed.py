"""Host speed: a fixed pure-Python reference loop timed between requests.

The shared host this benchmark runs on changes speed by up to a third for
a minute or more at a time, and every process on it slows alike: a run of
30 s that falls in a slow stretch reads a third slower whatever the
program does. The reference loop below uses no ``iasi`` code and the same
kind of work (small frozensets, sumsets, sorting, dicts, JSON text), so its
time tracks the host's speed for the workload. ``HostClock`` times it
before the first request and after every slice of requests, and scales each
request's wall time by ``REFERENCE_S`` over the mean of the two samples on
either side of its slice: the normalized time is the wall time the request
would take on the host at the speed it had when ``REFERENCE_S`` was fixed.
The host's speed moves within seconds, so the samples next to a request
track it better than any one figure for the whole run.
"""

from __future__ import annotations

import json
import random
import time

# One sample is this many runs of the reference unit (about 0.5 s).
UNITS = 10
# Wall seconds of one sample, median over a few minutes on a 2-vCPU Intel
# Xeon guest under CPython 3.11. Only a constant scale: changing it changes
# every normalized time by the same factor.
REFERENCE_S = 0.5
# Request wall time between two samples; a slice ends at the first request
# boundary past it.
SLICE_S = 4.0


def _unit(seed: int) -> int:
    rng = random.Random(seed)
    sets = [frozenset(rng.sample(range(200), rng.randint(3, 6))) for _ in range(96)]
    seen = {}
    lines = []
    for i, a in enumerate(sets):
        for b in sets[i:]:
            s = frozenset(x + y for x in a for y in b)
            ordered = sorted(s)
            steps = {q - p for p, q in zip(ordered, ordered[1:])}
            seen.setdefault(s, (i, len(steps)))
        lines.append(json.dumps({"i": i, "label": sorted(a)}, sort_keys=True))
    return len(seen) + len(lines)


def sample() -> float:
    """Wall seconds of one reference sample."""
    start = time.perf_counter()
    for seed in range(UNITS):
        _unit(seed)
    return time.perf_counter() - start


class HostClock:
    """Turns request wall times into normalized times, one slice at a time."""

    def __init__(self):
        self.samples = [sample()]
        self.pending: list[tuple[object, float]] = []
        self.pending_s = 0.0

    def add(self, key, elapsed_s: float) -> list[tuple[object, float]]:
        """Queue one request; returns the slice's (key, normalized s) once the slice ends."""
        self.pending.append((key, elapsed_s))
        self.pending_s += elapsed_s
        return self.close() if self.pending_s >= SLICE_S else []

    def close(self) -> list[tuple[object, float]]:
        """Sample the host and normalize the queued requests by the samples around them."""
        if not self.pending:
            return []
        self.samples.append(sample())
        factor = 2 * REFERENCE_S / (self.samples[-2] + self.samples[-1])
        done = [(key, elapsed * factor) for key, elapsed in self.pending]
        self.pending, self.pending_s = [], 0.0
        return done
