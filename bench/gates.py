"""Output gates: every result the benchmark times is checked here.

The labeling checker is built from plain Python sets and shares no code
with ``iasi.classify``, so a fast path that breaks classification cannot
also break the check that catches it. The catalog and document gates
compare byte digests against values recorded on the seed code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class CatalogExpectation:
    """What one ``iasi catalog`` records stream must match."""

    records: int
    graphs: int
    # sha256 of the lines of every policy except "random", plus the K3
    # probe, in stream order: only "random" draws from the seed, so this
    # digest gates every seed.
    seed_free_sha: str
    # sha256 of the whole stream, for the seeds it was recorded at.
    full_sha: dict


# n <= 5, policies fixed, random and maximal; recorded on the seed code at
# seed 0 (the default) and seed 1 (held out while the benchmark was built).
CATALOG_N5 = CatalogExpectation(
    records=21925,
    graphs=771,
    seed_free_sha="c3392b39089bc3a9df61d09221fee2439e0082dcbf0820f5bb3e355f6177b344",
    full_sha={
        0: "7bcd68ef3f9cd0ed137638b1bfc167cee985adc744fe7b369d8010042d79b5d6",
        1: "ea5d199b446a366664f7a2df987237b0ba6efe91e399375f058df5a537f3d8f4",
    },
)

# sha256 over the transform-docs outputs (documents, DOT, collision
# witnesses) for one full pass of the corpus, recorded on the seed code.
TRANSFORM_DOCS_SHA = {
    0: "a45c4361d41b6a49a8d6b1d73cf6b5fe529397d2aed177a2964616318bba49d8",
    1: "2683761f7936b5a527d5181e7d4f642ca3a885d1ecac7dda0836fafbc183dc69",
}

_OUTCOMES = ("pass", "fail", "discrepancy")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_ap(values) -> bool:
    ordered = sorted(values)
    if len(ordered) < 2:
        return True
    step = ordered[1] - ordered[0]
    return all(b - a == step for a, b in zip(ordered, ordered[1:]))


def labeling_problems(edges, labels, check_progressions=True, limit=5):
    """Independent check of a set-indexer given as plain data.

    ``edges`` are vertex pairs and ``labels`` maps each vertex to an
    iterable of integers. Checks vertex and edge injectivity; with
    ``check_progressions`` also that every vertex label is a progression of
    at least 3 elements, every edge sumset is a progression, and every edge
    meets the multiplier bound (the larger difference is k times the
    smaller with k at most the size of the smaller-difference endpoint).
    Returns at most ``limit`` problem strings; empty means accepted.
    """
    problems = []
    vertex_sets = {v: frozenset(label) for v, label in labels.items()}
    owner = {}
    for v, s in vertex_sets.items():
        if s in owner:
            problems.append(f"vertex collision: {owner[s]!r} and {v!r}")
        owner[s] = v
    edge_owner = {}
    for u, v in edges:
        s = frozenset(a + b for a in vertex_sets[u] for b in vertex_sets[v])
        if s in edge_owner:
            problems.append(f"edge collision: {edge_owner[s]} and {(u, v)}")
        edge_owner[s] = (u, v)
        if check_progressions and not _is_ap(s):
            problems.append(f"edge {(u, v)} label is not a progression")
    if check_progressions:
        diffs = {}
        for v, s in vertex_sets.items():
            ordered = sorted(s)
            if len(ordered) < 3 or not _is_ap(ordered):
                problems.append(f"vertex {v!r} label is not a progression of 3 or more")
            else:
                diffs[v] = ordered[1] - ordered[0]
        for u, v in edges:
            if u not in diffs or v not in diffs:
                continue
            low, high = sorted((diffs[u], diffs[v]))
            low_ends = [x for x in (u, v) if diffs[x] == low]
            bound = min(len(vertex_sets[x]) for x in low_ends)
            if high % low or high // low > bound:
                problems.append(f"edge {(u, v)} breaks the multiplier bound")
    return problems[:limit]


def document_output_problems(doc_bytes: bytes, dot_bytes: bytes) -> list[str]:
    """Check a saved labeling document and its DOT export against each other.

    The document must be the canonical rendering of its own content, its
    labeling must be injective, and the DOT text must be exactly what the
    documented layout gives for that labeling, with edge labels computed
    here as plain-set sumsets.
    """
    doc = json.loads(doc_bytes)
    if (json.dumps(doc, indent=2) + "\n").encode("utf-8") != doc_bytes:
        return ["document is not in canonical form"]
    vertices, labels = doc["graph"]["vertices"], doc["labels"]
    edges = [tuple(e) for e in doc["graph"]["edges"]]
    problems = labeling_problems(edges, labels, check_progressions=False)

    def braces(values):
        return "{%s}" % ",".join(str(v) for v in sorted(values))

    lines = ["graph G {"]
    lines += [f'  "{v}" [label="{braces(labels[v])}"];' for v in vertices]
    lines += [f'  "{u}" -- "{v}" [label="{braces({a + b for a in labels[u] for b in labels[v]})}"];'
              for u, v in edges]
    if ("\n".join(lines + ["}"]) + "\n").encode("utf-8") != dot_bytes:
        problems.append("DOT export does not match the document")
    return problems


def catalog_stream_problems(data: bytes, seed: int, summary: dict,
                            expected: CatalogExpectation = CATALOG_N5) -> list[str]:
    """Gate one ``iasi catalog`` records stream against its summary and digests."""
    try:
        raw_lines = data.decode("utf-8").splitlines(keepends=True)
        parsed = [json.loads(line) for line in raw_lines]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"records stream does not parse: {exc}"]
    counts = dict.fromkeys(_OUTCOMES, 0)
    for record in parsed:
        if not isinstance(record, dict) or set(record) != {"graph", "check", "outcome", "witness"}:
            return [f"malformed record: {record!r:.120}"]
        if record["outcome"] not in counts:
            return [f"unknown outcome in record: {record!r:.120}"]
        counts[record["outcome"]] += 1
    problems = []
    if counts != summary.get("outcomes"):
        problems.append(f"stream outcomes {counts} differ from summary {summary.get('outcomes')}")
    if counts["fail"]:
        problems.append(f"{counts['fail']} failed checks")
    if len(parsed) != expected.records or summary.get("records") != expected.records:
        problems.append(f"expected {expected.records} records, got {len(parsed)}")
    if summary.get("graphs") != expected.graphs:
        problems.append(f"expected {expected.graphs} graphs, got {summary.get('graphs')}")
    seed_free = "".join(
        line for line, record in zip(raw_lines, parsed) if not record["check"].endswith("/random")
    )
    if sha256(seed_free.encode("utf-8")) != expected.seed_free_sha:
        problems.append("seed-free lines (fixed, maximal, probe) changed")
    if seed in expected.full_sha and sha256(data) != expected.full_sha[seed]:
        problems.append(f"records stream for seed {seed} changed")
    return problems


def self_test() -> list[str]:
    """Planted defects each gate must reject; returns the ones that got through."""
    good = {"a": [0, 1, 2], "b": [20, 21, 22], "c": [5, 6, 7], "d": [40, 42, 44]}
    path = [("a", "b"), ("b", "c"), ("c", "d")]
    planted = {
        "accepts a valid labeling": (path, good, False),
        "vertex collision": (path, {**good, "d": [0, 1, 2]}, True),
        # a+b and c+d are both {20, ..., 24}
        "edge collision": (path, {**good, "d": [15, 16, 17]}, True),
        "non-progression label": (path, {**good, "c": [5, 6, 8]}, True),
    }
    failures = []
    for name, (edges, labels, reject) in planted.items():
        if bool(labeling_problems(edges, labels)) != reject:
            failures.append(f"labeling gate: {name}")

    lines = [
        json.dumps({"check": f"construct/{policy}", "graph": "a-b", "outcome": "pass",
                    "witness": {"fallback": False}}, sort_keys=True, separators=(",", ":")) + "\n"
        for policy in ("fixed", "random", "maximal")
    ]
    stream = "".join(lines).encode("utf-8")
    seed_free = "".join(lines[0::2]).encode("utf-8")
    summary = {"outcomes": {"pass": 3, "fail": 0, "discrepancy": 0}, "records": 3, "graphs": 1}
    expected = CatalogExpectation(3, 1, sha256(seed_free), {0: sha256(stream)})

    def problems(data):
        return catalog_stream_problems(data, 0, summary, expected)

    if problems(stream):
        failures.append("records gate: rejects the unmodified stream")
    for i in range(len(stream)):
        flipped = bytearray(stream)
        flipped[i] ^= 0x01
        if not problems(bytes(flipped)):
            failures.append(f"records gate: accepts a stream with byte {i} flipped")
    return failures
