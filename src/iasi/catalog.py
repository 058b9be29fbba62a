"""Exhaustive small-graph catalog and the theorem-checking harness.

Connected labeled simple graphs are enumerated by adjacency bitmask (no
isomorphism reduction), so the stream is exactly the 1, 4, 38, 728, ...
connected graphs on 2, 3, 4, 5, ... named vertices a, b, c, ... Each graph
is constructed, verified, classified, and pushed through the transforms;
every check emits one CheckRecord suitable for JSONL persistence.

Outcomes: "pass" means the artifact behaved per contract (structured
collision errors included -- the existence claims say some labeling works,
not that this transfer does); "discrepancy" means an empirical
contradiction of a claimed result and is worth eyeballs; "fail" means a
defect. The K3 probe labels a triangle with three distinct differences
(1, 2, 4, all sizes 4); the verifier accepts it as arithmetic, which the
two-band construction's necessity claim says should not happen, so that
record lands as a discrepancy.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations
from typing import Iterator

from .classify import (
    _non_progression_edges,
    check_gcd_invariant,
    check_multiplier_condition,
    classify_arithmetic,
    verify_iasi,
)
from .construct import ConstructionParams, _progression_labels, construct_arbitrary
from .errors import GraphValidationError, LabelCollisionError
from .graphs import Graph, LabeledGraph, _bfs_components, _vertex_names, complete_graph
from .transforms import (
    _reduction_problem,
    contract_edge,
    reduce_topologically,
    subdivide,
    to_line_graph,
    to_total_graph,
)

__all__ = [
    "enumerate_connected_graphs",
    "CheckRecord",
    "check_one_graph",
    "records_jsonl",
    "probe_k3_three_index",
    "run_catalog_checks",
]

MIN_CATALOG_N = 2
MAX_CATALOG_N = 7
# Masks per shard, the unit of work a catalog worker checks and sends back.
_SHARD_MASKS = 32


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return len(next(_bfs_components(range(n), adj.__getitem__))) == n


def enumerate_connected_graphs(max_n: int) -> Iterator[Graph]:
    """Every connected labeled graph on 2..max_n vertices, smallest first.

    Within one vertex count the order is by edge bitmask over the
    lexicographic vertex pairs, so the stream is stable across runs. A bad
    ``max_n`` raises here, at the call, not at the first graph.
    """
    if not isinstance(max_n, int) or not MIN_CATALOG_N <= max_n <= MAX_CATALOG_N:
        raise ValueError(f"max_n must be in [{MIN_CATALOG_N}, {MAX_CATALOG_N}], got {max_n!r}")
    return _connected_graphs(_shards(range(MIN_CATALOG_N, max_n + 1)))


def _shards(vertex_counts) -> Iterator[tuple[int, range]]:
    """Each vertex count's masks cut into ranges of ``_SHARD_MASKS``, in enumeration order."""
    for n in vertex_counts:
        masks = range(1, 1 << (n * (n - 1) // 2))
        for start in range(0, len(masks), _SHARD_MASKS):
            yield n, masks[start : start + _SHARD_MASKS]


def _connected_graphs(shards) -> Iterator[Graph]:
    for n, masks in shards:
        vertices = _vertex_names(n)
        pairs = list(combinations(range(n), 2))
        for mask in masks:
            chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if not _connected(n, chosen):
                continue
            yield Graph(vertices, [(vertices[i], vertices[j]) for i, j in chosen])


@dataclass(frozen=True)
class CheckRecord:
    """One outcome of one check on one graph.

    wall_time_ms stays off the JSONL line: persisted records must be
    byte-identical across identically-seeded runs, and timing is not.
    """

    graph_id: str
    check: str
    outcome: str  # pass | fail | discrepancy
    witness: dict = field(default_factory=dict)
    wall_time_ms: float = 0.0

    def json_line(self) -> str:
        payload = {
            "graph": self.graph_id,
            "check": self.check,
            "outcome": self.outcome,
            "witness": self.witness,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def records_jsonl(records) -> str:
    return "".join(r.json_line() + "\n" for r in records)


def _timed(gid: str, check: str, outcome_fn, *args) -> CheckRecord:
    """Run one check's ``outcome_fn(*args) -> (outcome, witness)`` and time it.

    Every catalog record is built here, so every record is timed the same way.
    """
    start = time.perf_counter()
    outcome, witness = outcome_fn(*args)
    return CheckRecord(gid, check, outcome, witness, (time.perf_counter() - start) * 1000)


def _pass_or_fail(ok: bool) -> str:
    return "pass" if ok else "fail"


def _k3_three_index(graph: Graph):
    differences = {"a": 1, "b": 2, "c": 4}
    labels = _progression_labels(graph.vertices, differences, dict.fromkeys(graph.vertices, 4))
    report = classify_arithmetic(LabeledGraph(graph, labels))
    if report.is_iasi and report.arithmetic:
        return "discrepancy", {
            "differences": sorted(differences.values()),
            "arithmetic": True,
            "note": "three distinct differences on K3 verified arithmetic",
        }
    return "pass", {"arithmetic": report.arithmetic, "is_iasi": report.is_iasi}


def probe_k3_three_index() -> CheckRecord:
    """Label K3 with differences 1, 2, 4 (sizes 4) and see what the verifier says.

    Every pairwise multiplier is within bounds (2, 2 and 4 against size-4
    labels), so the labeling classifies arithmetic with three distinct
    vertex differences; the two-band necessity claim for complete graphs
    allows at most two. Finding it arithmetic is therefore recorded as a
    discrepancy, not a failure.
    """
    graph = complete_graph(3)
    return _timed(graph.graph_id(), "probe-k3-three-index", _k3_three_index, graph)


def _verify(lg: LabeledGraph):
    report = verify_iasi(lg)
    return _pass_or_fail(report.is_iasi), {"is_iasi": report.is_iasi}


def _arithmetic(lg: LabeledGraph):
    report = classify_arithmetic(lg)
    return _pass_or_fail(report.arithmetic), {"arithmetic": report.arithmetic}


def _multiplier(lg: LabeledGraph):
    report = check_multiplier_condition(lg)
    return _pass_or_fail(report.ok), {"violations": [str(v) for v in report.violations]}


def _gcd(lg: LabeledGraph):
    report = check_gcd_invariant(lg)
    return _pass_or_fail(report.ok), {
        "vertex_gcd": report.vertex_gcd,
        "edge_gcd": report.edge_gcd,
        "min_vertex_difference": report.min_vertex_difference,
    }


def _transform(transform, lg: LabeledGraph, *args):
    """Arithmetic output passes, collisions pass with a witness, a rejected
    structure passes with the violation, and a non-arithmetic output
    contradicts the transfer claims (discrepancy)."""
    try:
        out = transform(lg, *args)
    except LabelCollisionError as exc:
        return "pass", {"collision": exc.witness.to_dict()}
    except GraphValidationError as exc:
        return "pass", {"rejected": [v.kind for v in exc.violations]}
    report = classify_arithmetic(out)
    if report.is_iasi and report.arithmetic:
        return "pass", {"arithmetic": True}
    non_ap_edges = sorted(f"{u}-{v}" for u, v in _non_progression_edges(out))
    return "discrepancy", {
        "arithmetic": report.arithmetic,
        "is_iasi": report.is_iasi,
        "non_ap_edges": non_ap_edges,
    }


def _params(policy: str, seed: int) -> ConstructionParams:
    return ConstructionParams(
        base_difference=1, label_size_range=(3, 3), multiplier_policy=policy, seed=seed
    )


def check_one_graph(graph: Graph, policy: str, seed: int):
    """All records for one catalog graph under one construction policy."""
    gid = graph.graph_id()
    result = None

    def construct():
        nonlocal result
        result = construct_arbitrary(graph, _params(policy, seed))
        return "pass", {"fallback": result.fallback_applied}

    records = [_timed(gid, f"construct/{policy}", construct)]
    lg = result.labeled_graph
    first_edge = graph.edges[0]
    checks = [
        ("verify", _verify, lg),
        ("arithmetic", _arithmetic, lg),
        ("multiplier", _multiplier, lg),
        ("gcd", _gcd, lg),
        ("transform-contract", _transform, contract_edge, lg, first_edge),
        ("transform-subdivide", _transform, subdivide, lg, first_edge),
    ]
    reducible = next((v for v in graph.vertices if _reduction_problem(graph, v) is None), None)
    if reducible is not None:
        checks.append(("transform-reduce", _transform, reduce_topologically, lg, reducible))
    if len(graph.edges) >= 2:
        checks.append(("transform-line", _transform, to_line_graph, lg))
    checks.append(("transform-total", _transform, to_total_graph, lg))
    return records + [_timed(gid, f"{name}/{policy}", *check) for name, *check in checks]


_OUTCOMES = ("pass", "fail", "discrepancy")

# Vertex counts up to this one (43 graphs in all) are checked in the calling
# process: too few graphs to pay for starting workers.
_PARENT_MAX_N = 4


def _framed(records) -> tuple[bytes, list[int]]:
    """Records as their JSONL bytes and a count per outcome, in _OUTCOMES order."""
    outcomes = [r.outcome for r in records]
    return records_jsonl(records).encode(), [outcomes.count(o) for o in _OUTCOMES]


def _check_shards(shards, policies, seed):
    """The one place catalog checks run: each graph's framed records, in order."""
    for graph in _connected_graphs(shards):
        yield _framed([r for policy in policies for r in check_one_graph(graph, policy, seed)])


def run_catalog_checks(max_n: int, policies=("fixed",), seed: int = 0, records_path=None):
    """Check the whole catalog, writing each graph's JSONL lines to
    ``records_path`` (``os.devnull`` when None) as soon as the graph is
    checked; returns the summary.

    ``max_n``, every policy and the seed are checked before the file is
    opened, so bad arguments leave an existing file untouched, and a sweep
    that stops on an error leaves the lines of every graph before the one
    that failed. The stream is deterministic for a given (max_n, policies,
    seed): graphs in enumeration order, checks in a fixed sequence, the K3
    probe last. Vertex counts up to ``_PARENT_MAX_N`` are checked in this
    process; the shards of larger ones go to one forked worker per CPU
    (``_workers.dealt``), and the stream is the same either way. Only
    counters are kept; the summary counts outcomes and carries the sweep's
    elapsed time.
    """
    # imported here, not at the top: only a sweep uses the workers, so
    # importing iasi costs what it did before they existed
    from ._workers import dealt, worker_count

    started = time.perf_counter()
    enumerate_connected_graphs(max_n)  # checks max_n
    for policy in policies:
        _params(policy, seed)
    check = partial(_check_shards, policies=policies, seed=seed)
    small = _shards(range(MIN_CATALOG_N, min(max_n, _PARENT_MAX_N) + 1))
    large = _shards(range(_PARENT_MAX_N + 1, max_n + 1))
    workers = worker_count() if max_n > _PARENT_MAX_N else 1
    totals = [0] * len(_OUTCOMES)
    graphs = 0
    with open(records_path or os.devnull, "wb") as out, dealt(check, large, workers) as checked:

        def emit(data, counts):
            out.write(data)
            for i, count in enumerate(counts):
                totals[i] += count

        for data, counts in chain(check(small), checked):
            graphs += 1
            emit(data, counts)
        if max_n >= 3:
            emit(*_framed([probe_k3_three_index()]))
    return {
        "max_n": max_n,
        "policies": list(policies),
        "seed": seed,
        "graphs": graphs,
        "records": sum(totals),
        "outcomes": dict(zip(_OUTCOMES, totals)),
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
