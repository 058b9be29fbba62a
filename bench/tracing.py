"""In-memory spans and counts at the layer boundaries of ``iasi``.

``patched(tracer)`` swaps each public function and class constructor named
in ``TARGETS`` for a wrapper in every loaded ``iasi`` module, so calls from
one layer into another are recorded without changing the package's source.
Each call becomes one span (name, start, end, parent span) kept in flat
arrays and written once, after the run, by ``Tracer.write``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (layer metric prefix, defining module, attribute, dunder to wrap for classes)
TARGETS = (
    ("sets.IntegerSet", "iasi.sets", "IntegerSet", "__new__"),
    ("sets.sumset", "iasi.sets", "sumset", None),
    ("sets.detect_ap", "iasi.sets", "detect_ap", None),
    ("graphs.Graph", "iasi.graphs", "Graph", "__init__"),
    ("graphs.LabeledGraph", "iasi.graphs", "LabeledGraph", "__init__"),
    ("classify.classify_arithmetic", "iasi.classify", "classify_arithmetic", None),
    ("classify.verify_iasi", "iasi.classify", "verify_iasi", None),
    ("classify.check_multiplier_condition", "iasi.classify", "check_multiplier_condition", None),
    ("classify.check_gcd_invariant", "iasi.classify", "check_gcd_invariant", None),
    ("construct.construct_arbitrary", "iasi.construct", "construct_arbitrary", None),
    ("transforms.contract", "iasi.transforms", "contract_edge", None),
    ("transforms.subdivide", "iasi.transforms", "subdivide", None),
    ("transforms.reduce", "iasi.transforms", "reduce_topologically", None),
    ("transforms.line", "iasi.transforms", "to_line_graph", None),
    ("transforms.total", "iasi.transforms", "to_total_graph", None),
    ("catalog.check_one_graph", "iasi.catalog", "check_one_graph", None),
    ("io.load_document", "iasi.io", "load_document", None),
    ("io.save_document", "iasi.io", "save_document", None),
    ("io.export_dot", "iasi.io", "export_dot", None),
)

TRANSFORMS = ("contract", "subdivide", "reduce", "line", "total")


class Tracer:
    """Spans as parallel arrays plus named counters; nothing is written until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span per call; exceptions are counted by type and re-raised."""
        nid = self._id(name)
        opened, closed, counts = self._open, self._close, self.counts

        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                closed(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [e - s for n, s, e in zip(self.name_id, self.start, self.end) if n == nid]

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, inclusive seconds)."""
        calls = [0] * len(self.names)
        seconds = [0.0] * len(self.names)
        for n, s, e in zip(self.name_id, self.start, self.end):
            calls[n] += 1
            seconds[n] += e - s
        return {name: (calls[i], seconds[i]) for i, name in enumerate(self.names)}

    def write(self, path):
        """One JSON header line, then the raw name/parent/start/end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
            "counts": dict(self.counts),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        os.replace(tmp, path)


def _hooks(tracer: Tracer):
    counts = tracer.counts

    def ap_found(args, result):
        if result is not None:
            counts["sets.detect_ap:ap"] += 1

    def fallback(args, result):
        if result.fallback_applied:
            counts["construct.construct_arbitrary:fallback"] += 1

    def wrote(args, result):
        counts["io.bytes_written"] += os.path.getsize(args[1])

    return {
        "sets.detect_ap": ap_found,
        "construct.construct_arbitrary": fallback,
        "io.save_document": wrote,
        "io.export_dot": wrote,
    }


@contextmanager
def patched(tracer: Tracer):
    """Route every ``TARGETS`` call in the loaded ``iasi`` modules through ``tracer``."""
    hooks = _hooks(tracer)
    modules = [m for name, m in sys.modules.items() if name == "iasi" or name.startswith("iasi.")]
    undo = []
    try:
        for name, module_name, attr, dunder in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if dunder is not None:
                raw = original.__dict__[dunder]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                traced = tracer.wrap(name, fn, hooks.get(name))
                setattr(original, dunder, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
                undo.append((original, dunder, raw))
                continue
            traced = tracer.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        undo.append((module, key, original))
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every per-layer metric by name; layers the workload did not touch read 0.

    ``extra`` carries the values measured by the workload itself rather
    than by wrapped calls (enumeration, serialization, the offset-sequence
    replay, the CLI span and the tracing overhead).
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in (
        "sets.sumset", "sets.detect_ap", "sets.IntegerSet", "graphs.Graph", "graphs.LabeledGraph",
        "classify.classify_arithmetic", "classify.verify_iasi",
        "classify.check_multiplier_condition", "classify.check_gcd_invariant",
        "construct.construct_arbitrary", "io.load_document", "io.save_document", "io.export_dot",
        "cli.main",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (seconds(name), "s")
    out["sets.detect_ap.ap_ratio"] = (
        ratio(counts["sets.detect_ap:ap"], calls("sets.detect_ap")), "ratio")
    construct_calls = calls("construct.construct_arbitrary")
    construct_failed = sum(
        v for k, v in counts.items() if k.startswith("construct.construct_arbitrary:")
        and k != "construct.construct_arbitrary:fallback"
    )
    out["construct.construct_arbitrary.failed"] = (construct_failed, "count")
    out["construct.construct_arbitrary.fallback_ratio"] = (
        ratio(counts["construct.construct_arbitrary:fallback"], construct_calls), "ratio")
    out["construct.distinct_sum_sequence.s"] = (extra.get("distinct_sum_sequence_s", 0.0), "s")
    for op in TRANSFORMS:
        name = f"transforms.{op}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (seconds(name), "s")
        out[f"{name}.collision_ratio"] = (
            ratio(counts[f"{name}:LabelCollisionError"], calls(name)), "ratio")
    out["catalog.enumerate.s"] = (seconds("catalog.enumerate"), "s")
    out["catalog.enumerate.graphs"] = (extra.get("enumerate_graphs", 0), "count")
    out["catalog.enumerate.yield_ratio"] = (
        ratio(extra.get("enumerate_graphs", 0), extra.get("enumerate_masks", 0)), "ratio")
    check_ms = [d * 1000 for d in tracer.durations("catalog.check_one_graph")]
    out["catalog.check_one_graph.p50_ms"] = (percentile(check_ms, 50), "ms")
    out["catalog.check_one_graph.p95_ms"] = (percentile(check_ms, 95), "ms")
    out["catalog.serialize.s"] = (seconds("catalog.serialize"), "s")
    out["catalog.serialize.bytes"] = (extra.get("serialize_bytes", 0), "bytes")
    out["io.bytes_written"] = (counts["io.bytes_written"], "bytes")
    out["trace.overhead_ratio"] = (extra.get("overhead_ratio", 0.0), "ratio")
    return out
