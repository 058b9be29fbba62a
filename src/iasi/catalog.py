"""Exhaustive small-graph catalog and the theorem-checking harness.

Connected labeled simple graphs are enumerated by adjacency bitmask (no
isomorphism reduction), so the stream is exactly the 1, 4, 38, 728, ...
connected graphs on 2, 3, 4, 5, ... named vertices a, b, c, ... Each graph
is constructed, then ``_check_labeling``, which takes any arithmetic IASI,
checks the claims on it; every check emits one CheckRecord suitable for JSONL
persistence. A sweep deals every shard of masks, from n=2 up, to one
``_workers.dealt`` call, serial or forked, with the same stream either way.

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

from ._workers import dealt, worker_count
from .classify import (
    _non_progression_edges,
    check_gcd_invariant,
    check_multiplier_condition,
    classify_arithmetic,
    verify_iasi,
)
from .construct import ConstructionParams, construct_arbitrary, construct_complete
from .errors import GraphValidationError, LabelCollisionError
from .graphs import Graph, LabeledGraph, _vertex_names, complete_graph
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
# Masks per shard, the unit of work a catalog worker takes and sends back as
# one frame. The parent keeps each frame that arrives before its turn, up to
# the shards it dealt ahead, so a shard must stay small: at 8 masks the
# largest frame of an n<=5 three-policy sweep is 28,975 bytes.
_SHARD_MASKS = 8


def enumerate_connected_graphs(max_n: int) -> Iterator[Graph]:
    """Every connected labeled graph on 2..max_n vertices, smallest first.

    Within one vertex count the order is by edge bitmask over the
    lexicographic vertex pairs, so the stream is stable across runs. A mask
    that leaves some vertex without a pair is skipped; every other mask is
    built as a ``Graph``, and only the connected ones are kept, each with
    the breadth-first order that decided it cached. A bad ``max_n`` raises
    here, at the call, not at the first graph.
    """
    if not isinstance(max_n, int) or not MIN_CATALOG_N <= max_n <= MAX_CATALOG_N:
        raise ValueError(f"max_n must be in [{MIN_CATALOG_N}, {MAX_CATALOG_N}], got {max_n!r}")
    return _connected_graphs(_shards(range(MIN_CATALOG_N, max_n + 1)))


def _shards(vertex_counts) -> Iterator[tuple[tuple, range]]:
    """Each vertex count's masks cut into ranges of ``_SHARD_MASKS``, in enumeration order.

    Every shard of one vertex count shares that count's layout: its vertex
    names, its vertex pairs, and each vertex's pairs as a mask.
    """
    for n in vertex_counts:
        vertices = _vertex_names(n)
        pairs = list(combinations(vertices, 2))
        incident = [sum(1 << i for i, pair in enumerate(pairs) if v in pair) for v in vertices]
        layout = vertices, pairs, incident
        masks = range(1, 1 << len(pairs))
        for start in range(0, len(masks), _SHARD_MASKS):
            yield layout, masks[start : start + _SHARD_MASKS]


def _connected_graphs(shards) -> Iterator[Graph]:
    for (vertices, pairs, incident), masks in shards:
        for mask in masks:
            # a mask holding none of a vertex's pairs leaves that vertex isolated
            if all(mask & pairs_at for pairs_at in incident):
                graph = Graph(vertices, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                if graph.is_connected():
                    yield graph


# the string quoting that _encode (and json.dumps) applies
_quoted = json.encoder.encode_basestring_ascii


def _witness_encoder(make_c_encoder):
    """``json.dumps(sort_keys=True, separators=(",", ":"))`` as one encoder, built
    once: JSONEncoder.encode builds a new one on every call.

    ``make_c_encoder`` is ``json.encoder.c_make_encoder``, None where there is no
    C accelerator; then it is the pure-Python path json.dumps would take.
    Witnesses are the library's own acyclic dicts, so no circular-reference
    markers are kept.
    """
    if make_c_encoder is None:
        chunks = json.JSONEncoder(
            sort_keys=True, separators=(",", ":"), check_circular=False
        ).iterencode
    else:
        chunks = make_c_encoder(
            None, json.JSONEncoder().default, _quoted, None, ":", ",", True, False, True
        )
    return lambda witness: "".join(chunks(witness, 0))


_encode = _witness_encoder(json.encoder.c_make_encoder)


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
        """``_encode`` of the record's payload, its keys already in sorted order."""
        return (
            f'{{"check":{_quoted(self.check)},"graph":{_quoted(self.graph_id)},'
            f'"outcome":{_quoted(self.outcome)},"witness":{_encode(self.witness)}}}'
        )


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


def _k3_three_index():
    differences = (1, 2, 4)
    report = classify_arithmetic(construct_complete(differences, sizes=4))
    if report.is_iasi and report.arithmetic:
        return "discrepancy", {
            "differences": list(differences),
            "arithmetic": True,
            "note": "three distinct differences on K3 verified arithmetic",
        }
    return "pass", {"arithmetic": report.arithmetic, "is_iasi": report.is_iasi}


def probe_k3_three_index() -> CheckRecord:
    """Label K3 with differences 1, 2, 4 (sizes 4) and see what the verifier says.

    Every pairwise multiplier is within bounds (2, 2 and 4 against size-4
    labels), so it classifies arithmetic with three distinct differences,
    where the two-band necessity claim for complete graphs allows two. By
    the band law, size-l labels admit min(n, floor(log2 l) + 1) differences:
    "at most two" holds exactly when l <= 3. The record stays a discrepancy.
    """
    return _timed(complete_graph(3).graph_id(), "probe-k3-three-index", _k3_three_index)


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
    """One catalog graph's construct record under ``policy``, then ``_check_labeling``'s."""
    result = None

    def construct():
        nonlocal result
        result = construct_arbitrary(graph, _params(policy, seed))
        return "pass", {"fallback": result.fallback_applied}

    record = _timed(graph.graph_id(), f"construct/{policy}", construct)
    return [record, *_check_labeling(result.labeled_graph, policy)]


def _first_reducible(graph: Graph):
    return next((v for v in graph.vertices if _reduction_problem(graph, v) is None), None)


def _check_labeling(lg: LabeledGraph, policy: str) -> list:
    """The catalog's claims on one labeling, in stream order; ``policy`` names the records.

    The labeling must be an arithmetic IASI of a connected graph: injective,
    every vertex label a progression of 3 or more elements, every edge label
    a progression. Any other labeling raises partway: NotArithmeticError
    from the gcd check, which needs every label to be a progression, or else
    from the contraction, which needs an arithmetic IASI (so a repeated label
    or a 2-element vertex label raises there), and DisconnectedGraphError
    from the gcd check on a disconnected graph. Reduce runs at the first
    reducible vertex, if any; line needs two edges.
    """
    graph = lg.graph
    gid = graph.graph_id()
    first_edge = graph.edges[0]
    checks = [
        ("verify", _verify, lg),
        ("arithmetic", _arithmetic, lg),
        ("multiplier", _multiplier, lg),
        ("gcd", _gcd, lg),
        ("transform-contract", _transform, contract_edge, lg, first_edge),
        ("transform-subdivide", _transform, subdivide, lg, first_edge),
    ]
    reducible = graph._fact(_first_reducible)
    if reducible is not None:
        checks.append(("transform-reduce", _transform, reduce_topologically, lg, reducible))
    if len(graph.edges) >= 2:
        checks.append(("transform-line", _transform, to_line_graph, lg))
    checks.append(("transform-total", _transform, to_total_graph, lg))
    return [_timed(gid, f"{name}/{policy}", *check) for name, *check in checks]


_OUTCOMES = ("pass", "fail", "discrepancy")

# A sweep up to this many vertices (43 graphs in all) runs in the calling
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
    ``records_path`` (``os.devnull`` when None) in enumeration order as the
    sweep goes; returns the summary.

    ``max_n``, the policies (an iterable of at least one name, not a bare
    string, with no name twice) and the seed are checked before the file is
    opened, so bad arguments leave an existing file untouched, and a sweep
    that stops on an error leaves the lines of every graph before the one
    that failed; one stopped by a forked worker that died without an error
    leaves those before that worker's shard. The stream is deterministic for
    a given (max_n, policies, seed): graphs in enumeration order, checks in
    a fixed sequence, the K3 probe last. Every shard of ``_SHARD_MASKS``
    masks, from n=2 up, goes through one ``_workers.dealt`` call: a sweep up
    to ``_PARENT_MAX_N`` vertices runs in this process, graph by graph, and
    a larger one on one forked worker per CPU, each taking the next shard
    whenever it is free, with each shard's lines written once the shards
    before it are. The stream is the same either way. Only counters are
    kept; the summary counts outcomes and carries the sweep's elapsed time.
    """
    started = time.perf_counter()
    enumerate_connected_graphs(max_n)  # checks max_n
    if isinstance(policies, str):
        raise ValueError(f"policies must be an iterable of names, not the string {policies!r}")
    policies = tuple(policies)  # validated and swept alike, even from an iterator
    for index, policy in enumerate(policies):
        _params(policy, seed)
        if policy in policies[:index]:
            raise ValueError(f"policy {policy!r} is given twice: its records would share names")
    if not policies:
        raise ValueError("policies must name at least one multiplier policy")
    check = partial(_check_shards, policies=policies, seed=seed)
    shards = _shards(range(MIN_CATALOG_N, max_n + 1))
    workers = worker_count() if max_n > _PARENT_MAX_N else 1
    totals = [0] * len(_OUTCOMES)
    with open(records_path or os.devnull, "wb") as out, dealt(check, shards, workers) as checked:
        probe = [probe_k3_three_index()] if max_n >= 3 else []
        # the probe's frame (empty below n=3) comes last, so its index counts the graphs
        for graphs, (data, counts) in enumerate(chain(checked, [_framed(probe)])):
            out.write(data)
            totals = [total + count for total, count in zip(totals, counts)]
    return {
        "max_n": max_n,
        "policies": list(policies),
        "seed": seed,
        "graphs": graphs,
        "records": sum(totals),
        "outcomes": dict(zip(_OUTCOMES, totals)),
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
