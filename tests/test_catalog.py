"""Small-graph enumeration and the theorem-checking harness."""

import gc
import hashlib
import io
import itertools
import json
import marshal
import os
import pickle
import signal
import threading
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from iasi import (
    CheckRecord,
    Graph,
    GraphValidationError,
    LabelCollisionError,
    LabeledGraph,
    NotArithmeticError,
    SchemaError,
    check_one_graph,
    complete_graph,
    construct_arbitrary,
    cycle_graph,
    distinct_sum_sequence,
    enumerate_connected_graphs,
    path_graph,
    probe_k3_three_index,
    records_jsonl,
    run_catalog_checks,
    star_graph,
    verify_iasi,
)
from iasi import catalog, graphs
from iasi._workers import _AHEAD, _in_shard_order, dealt, worker_count
from iasi.graphs import _breadth_first as breadth_first
from iasi.construct import _progression_labels
from reference import reference_catalog

PROBE = "probe-k3-three-index"
POLICIES = ("fixed", "random", "maximal")

# connected labeled graphs on n vertices, a classical count
CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def test_enumeration_counts_match_known_sequence():
    by_size = Counter(len(g.vertices) for g in enumerate_connected_graphs(5))
    assert dict(by_size) == {n: CONNECTED_COUNTS[n] for n in (2, 3, 4, 5)}


def test_enumeration_count_six_vertices():
    count = sum(1 for g in enumerate_connected_graphs(6) if len(g.vertices) == 6)
    assert count == CONNECTED_COUNTS[6]


def test_enumeration_bounds():
    # checked at the call, before any graph is asked for
    with pytest.raises(ValueError):
        enumerate_connected_graphs(1)
    with pytest.raises(ValueError):
        enumerate_connected_graphs(8)


def test_enumeration_yields_connected_canonical_graphs():
    seen = set()
    for g in enumerate_connected_graphs(4):
        assert g.is_connected()
        assert g.vertices == tuple(sorted(g.vertices))
        assert g.edges == tuple(sorted(g.edges))
        seen.add(g.graph_id())
    assert len(seen) == 1 + 4 + 38


def test_each_catalog_graph_is_searched_once(monkeypatch):
    # the enumerator's connectivity test caches the order construct_arbitrary reads
    searched = []

    def counted(graph):
        searched.append(graph)
        return breadth_first(graph)

    monkeypatch.setattr(graphs, "_breadth_first", counted)
    kept = []
    for graph in enumerate_connected_graphs(4):
        check_one_graph(graph, "fixed", 0)
        kept.append(graph)
    # and the 3 graphs on 4 vertices that leave none isolated but are disconnected
    assert len(searched) == len(kept) + 3 == 46
    assert all(sum(s is graph for s in searched) == 1 for graph in kept)


def test_complete_graph_enumerated_exactly_once():
    k4 = complete_graph(4).graph_id()
    hits = [g for g in enumerate_connected_graphs(4) if g.graph_id() == k4]
    assert len(hits) == 1


# ----------------------------------------------------------------- families


def test_family_shapes():
    assert path_graph(4).edges == (("a", "b"), ("b", "c"), ("c", "d"))
    assert cycle_graph(3).edges == (("a", "b"), ("a", "c"), ("b", "c"))
    assert len(complete_graph(5).edges) == 10
    assert star_graph(5).degree("a") == 4


def test_family_names_beyond_26_letters():
    # single letters up to 26, then fixed-width strings in creation order
    assert path_graph(26).vertices[-1] == "z"
    path = path_graph(48)
    assert path.vertices[:2] == ("aa", "ab") and path.vertices[-1] == "bv"
    assert path.edges == tuple(zip(path.vertices, path.vertices[1:]))
    assert cycle_graph(27).vertices[-1] == "ba"
    assert star_graph(40).degree("aa") == 39
    assert len(complete_graph(30).edges) == 30 * 29 // 2
    assert len(path_graph(26**2 + 1).vertices[0]) == 3


@pytest.mark.parametrize("family,bad", [
    (path_graph, 1),
    (cycle_graph, 2),
    (complete_graph, 1),
    (star_graph, 1),
])
def test_family_bounds(family, bad):
    with pytest.raises(ValueError):
        family(bad)


# -------------------------------------------------------------------- probe


def test_probe_is_a_discrepancy():
    record = probe_k3_three_index()
    assert record.outcome == "discrepancy"
    assert record.check == PROBE
    assert record.witness["differences"] == [1, 2, 4]


# ------------------------------------------------------------------ records


def test_record_json_line_shape():
    r = CheckRecord("a-b", "verify/fixed", "pass", {"is_iasi": True}, 12.5)
    payload = json.loads(r.json_line())
    assert set(payload) == {"graph", "check", "outcome", "witness"}
    assert "wall_time" not in r.json_line()


def test_records_jsonl_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_catalog_checks(3, policies=("fixed",), seed=0, records_path=a)
    run_catalog_checks(3, policies=("fixed",), seed=0, records_path=b)
    assert a.read_bytes() == b.read_bytes()

    # the file is exactly the serialized records of each graph, then the probe
    replay = [r for g in enumerate_connected_graphs(3) for r in check_one_graph(g, "fixed", 0)]
    assert a.read_text() == records_jsonl([*replay, probe_k3_three_index()])


def test_check_one_graph_covers_expected_checks():
    names = {r.check for r in check_one_graph(cycle_graph(4), "fixed", seed=0)}
    assert names == {
        "construct/fixed",
        "verify/fixed",
        "arithmetic/fixed",
        "multiplier/fixed",
        "gcd/fixed",
        "transform-contract/fixed",
        "transform-subdivide/fixed",
        "transform-reduce/fixed",
        "transform-line/fixed",
        "transform-total/fixed",
    }


def test_policies_share_each_transform_structure(monkeypatch):
    graph = cycle_graph(4)
    built = []
    real = Graph.__init__

    def counting(self, vertices, edges):
        built.append(vertices)
        real(self, vertices, edges)

    monkeypatch.setattr(Graph, "__init__", counting)
    records = [r for policy in POLICIES for r in check_one_graph(graph, policy, seed=0)]
    assert len(records) == 3 * 10
    # contract, subdivide, reduce, line and total: one structure each for all
    # three labelings of the graph, not one per labeling (15)
    assert len(built) == 5


def test_reduce_and_line_checks_skipped_when_undefined():
    names = {r.check for r in check_one_graph(path_graph(2), "fixed", seed=0)}
    assert "transform-reduce/fixed" not in names  # no degree-2 vertex
    assert "transform-line/fixed" not in names  # single edge


def test_a_graph_with_no_reducible_vertex_is_searched_in_linear_time():
    # a star has no degree-2 vertex, so every vertex is tested; each test is a
    # dict lookup, where a scan of the vertex tuple made the search quadratic
    graph = star_graph(40_000)
    start = time.perf_counter()
    assert catalog._first_reducible(graph) is None
    assert time.perf_counter() - start < 1


# every record of the catalog's claims on P3 with differences 3, 6, 2 (sizes
# 3): arithmetic, but 6 is no multiple of the least difference, 2
P3_3_6_2 = [
    ("verify", "pass", {"is_iasi": True}),
    ("arithmetic", "pass", {"arithmetic": True}),
    ("multiplier", "pass", {"violations": []}),
    ("gcd", "fail", {"vertex_gcd": 1, "edge_gcd": 1, "min_vertex_difference": 2}),
    ("transform-contract", "discrepancy",
     {"arithmetic": False, "is_iasi": True, "non_ap_edges": ["(a*b)-c"]}),
    ("transform-subdivide", "pass", {"arithmetic": True}),
    ("transform-reduce", "discrepancy",
     {"arithmetic": False, "is_iasi": True, "non_ap_edges": ["a-c"]}),
    ("transform-line", "discrepancy",
     {"arithmetic": False, "is_iasi": True, "non_ap_edges": ["(a,b)-(b,c)"]}),
    ("transform-total", "discrepancy",
     {"arithmetic": False, "is_iasi": True, "non_ap_edges": ["(a,b)-(b,c)"]}),
]


def p3_labeling(differences):
    vertices = path_graph(3).vertices
    labels = _progression_labels(
        vertices,
        dict(zip(vertices, differences)),
        dict.fromkeys(vertices, 3),
        distinct_sum_sequence(3),
    )
    return LabeledGraph(path_graph(3), labels)


def test_check_labeling_runs_on_any_labeling():
    records = catalog._check_labeling(p3_labeling((3, 6, 2)), "fixed")
    assert [(r.graph_id, r.check, r.outcome, r.witness) for r in records] == [
        ("a-b,b-c", f"{name}/fixed", outcome, witness) for name, outcome, witness in P3_3_6_2
    ]

    # every edge label must be a progression too: with differences 1, 5, 1
    # the multiplier 5 breaks the bound 3 and the gcd check cannot index an edge
    with pytest.raises(NotArithmeticError, match="edge"):
        catalog._check_labeling(p3_labeling((1, 5, 1)), "fixed")
    # and the labeling must be an arithmetic IASI, though every label is a
    # progression: a 2-element vertex label, or two equal vertex labels
    short = LabeledGraph(path_graph(3), {"a": {0, 1}, "b": {10, 11, 12}, "c": {20, 21, 22}})
    with pytest.raises(NotArithmeticError, match="requires an arithmetic labeling"):
        catalog._check_labeling(short, "fixed")
    repeated = LabeledGraph(path_graph(3), {"a": {0, 1, 2}, "b": {10, 11, 12}, "c": {0, 1, 2}})
    with pytest.raises(NotArithmeticError, match="requires an injective labeling"):
        catalog._check_labeling(repeated, "fixed")

    # a catalog graph's records are its construction, then the claims on what it built
    for graph in enumerate_connected_graphs(4):
        for policy in POLICIES:
            construct, *claims = check_one_graph(graph, policy, 0)
            built = construct_arbitrary(graph, catalog._params(policy, 0)).labeled_graph
            assert construct.check == f"construct/{policy}"
            assert records_jsonl(claims) == records_jsonl(catalog._check_labeling(built, policy))


def _timed_records():
    return [
        *check_one_graph(cycle_graph(4), "maximal", seed=0),
        *check_one_graph(path_graph(2), "random", seed=0),
        probe_k3_three_index(),
    ]


def test_every_record_is_timed_by_one_runner(monkeypatch):
    # a clock that ticks one second per reading: a record built from exactly
    # one start/stop pair reads 1000 ms, any other way of building it does not
    ticks = itertools.count()
    monkeypatch.setattr(catalog, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    records = _timed_records()
    assert {r.wall_time_ms for r in records} == {1000.0}


def test_every_record_has_a_real_timing():
    assert all(r.wall_time_ms > 0.0 for r in _timed_records())


# --------------------------------------------------------------- full sweeps


def sweep(tmp_path, *args, **kwargs):
    """Run a sweep into a records file; return the records read back and the summary."""
    path = tmp_path / "records.jsonl"
    summary = run_catalog_checks(*args, records_path=path, **kwargs)
    lines = map(json.loads, path.read_text().splitlines())
    records = [CheckRecord(d["graph"], d["check"], d["outcome"], d["witness"]) for d in lines]
    assert len(records) == summary["records"]
    return records, summary


def test_catalog_stream_is_pinned(tmp_path):
    path = tmp_path / "records.jsonl"
    run_catalog_checks(4, ("fixed", "random", "maximal"), seed=0, records_path=path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "8009e3ecbba9873911d3a5cd1d596293f0344dc669c8080231e4e2a29a7fc505"


@pytest.fixture
def deadline():
    """Fail a test that runs past two minutes, as a sweep whose dealing
    deadlocked would, instead of letting it hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("the sweep ran past its two-minute deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
def test_catalog_n5_stream_is_pinned(tmp_path):
    path = tmp_path / "records.jsonl"
    run_catalog_checks(5, ("fixed", "random", "maximal"), seed=0, records_path=path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "7bcd68ef3f9cd0ed137638b1bfc167cee985adc744fe7b369d8010042d79b5d6"


@pytest.mark.usefixtures("deadline")
def test_the_n5_stream_agrees_with_the_reference_catalog(tmp_path):
    # every record after a construct record (all but the probe), witness and
    # all, against the claims recomputed from the definitions on plain sets
    path = tmp_path / "records.jsonl"
    run_catalog_checks(5, POLICIES, seed=0, records_path=path)
    with open(path, encoding="utf-8") as lines:
        compared, disagreements = reference_catalog(lines)
    assert disagreements == []
    assert compared == 19_611


def test_the_reference_catalog_reports_a_changed_or_missing_record(tmp_path):
    path = tmp_path / "records.jsonl"
    run_catalog_checks(3, POLICIES, seed=0, records_path=path)
    lines = path.read_text(encoding="utf-8").splitlines()
    # all but the 5 graphs' construct records under each policy and the probe
    assert reference_catalog(lines) == (len(lines) - 3 * 5 - 1, [])
    total = next(i for i, line in enumerate(lines) if '"transform-total/fixed"' in line)
    changed = lines[total].replace('"outcome":"pass"', '"outcome":"discrepancy"')
    (record, want), = reference_catalog([*lines[:total], changed, *lines[total + 1 :]])[1]
    assert (record["outcome"], want["outcome"]) == ("discrepancy", "pass")
    (record, want), = reference_catalog([*lines[:total], *lines[total + 1 :]])[1]
    assert record is None and want["check"] == "transform-total/fixed"


def test_catalog_small_sweep_fixed_policy(tmp_path):
    records, summary = sweep(tmp_path, 3, policies=("fixed",), seed=0)
    assert summary["graphs"] == 5
    assert summary["outcomes"]["fail"] == 0
    # the K3 probe is the only expected discrepancy under the fixed policy
    odd = [r for r in records if r.outcome != "pass"]
    assert [r.check for r in odd] == ["probe-k3-three-index"]


def test_catalog_maximal_policy_flags_reduction_gap(tmp_path):
    records, _ = sweep(tmp_path, 4, policies=("maximal",), seed=0)
    gaps = [r for r in records if r.outcome == "discrepancy" and r.check != PROBE]
    assert gaps
    assert all(r.check == "transform-reduce/maximal" for r in gaps)
    assert all("non_ap_edges" in r.witness for r in gaps)


def test_catalog_total_graph_collisions_pass_with_witness(tmp_path):
    records, _ = sweep(tmp_path, 4, policies=("fixed",), seed=0)
    totals = [r for r in records if r.check == "transform-total/fixed"]
    collided = [r for r in totals if "collision" in r.witness]
    assert collided
    assert all(r.outcome == "pass" for r in collided)


def test_probe_suppressed_when_disabled(tmp_path):
    records, summary = sweep(tmp_path, 2, policies=("fixed",), seed=0)
    assert all(r.check != PROBE for r in records)
    assert summary["outcomes"]["discrepancy"] == 0


def test_lines_are_written_as_each_graph_is_checked(tmp_path, monkeypatch):
    graphs = list(enumerate_connected_graphs(3))
    k = 4
    finished = [r for g in graphs[: k - 1] for r in check_one_graph(g, "fixed", 0)]
    calls = itertools.count(1)
    real = catalog.check_one_graph

    def fail_on_kth(graph, policy, seed):
        if next(calls) == k:
            raise RuntimeError("stop")
        return real(graph, policy, seed)

    monkeypatch.setattr(catalog, "check_one_graph", fail_on_kth)
    path = tmp_path / "records.jsonl"
    with pytest.raises(RuntimeError, match="stop"):
        run_catalog_checks(3, records_path=path)
    assert path.read_text() == records_jsonl(finished)


@pytest.mark.parametrize(
    "bad",
    [
        {"max_n": 1},
        {"seed": -1},
        {"policies": ("bogus",)},
        {"policies": ()},
        {"policies": "maximal"},
        {"policies": ("fixed", "random", "fixed")},
    ],
)
def test_bad_arguments_leave_records_file_untouched(tmp_path, bad):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"earlier sweep\n")
    with pytest.raises(ValueError):
        run_catalog_checks(**{"max_n": 3, **bad}, records_path=path)
    assert path.read_bytes() == b"earlier sweep\n"


def test_policies_given_as_one_string_are_rejected_by_name():
    # a bare string would otherwise be read one character per policy
    with pytest.raises(ValueError, match="policies must be an iterable.*'maximal'"):
        run_catalog_checks(3, policies="maximal")


def test_policies_from_an_iterator_are_swept():
    # checking the names must not use up the iterator the sweep reads
    summary = run_catalog_checks(3, policies=iter(["fixed"]))
    assert summary["policies"] == ["fixed"]
    assert summary["records"] == run_catalog_checks(3)["records"]


# ------------------------------------------------------------- forked sweeps

N5_DIGEST = "7bcd68ef3f9cd0ed137638b1bfc167cee985adc744fe7b369d8010042d79b5d6"


def one_cpu(monkeypatch):
    """Make every later sweep run in this process, as on a machine with one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def count_forks(monkeypatch) -> list:
    """A list that gains one entry per later ``os.fork`` call in this process."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.usefixtures("deadline")
def test_forked_and_serial_sweeps_are_the_same(tmp_path, monkeypatch):
    forks = count_forks(monkeypatch)
    forked = run_catalog_checks(5, POLICIES, seed=0, records_path=tmp_path / "forked.jsonl")
    cpus = len(os.sched_getaffinity(0))
    one_cpu(monkeypatch)
    serial = run_catalog_checks(5, POLICIES, seed=0, records_path=tmp_path / "serial.jsonl")

    data = (tmp_path / "serial.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == N5_DIGEST
    assert (tmp_path / "forked.jsonl").read_bytes() == data
    del forked["elapsed_s"], serial["elapsed_s"]
    assert forked == serial
    # one fork per CPU, all in the default run, so the n<=5 pins cover the forked path
    if cpus >= 2:
        assert len(forks) == cpus


@pytest.mark.usefixtures("deadline")
def test_the_n4_stream_is_a_prefix_of_the_forked_n5_stream(tmp_path):
    # the serial n<=4 sweep and the forked n<=5 one (on 2 or more CPUs) check
    # the same graphs first, so the n<=4 lines begin the n<=5 stream once the
    # K3 probe's line, last in each, is left out
    for n in 4, 5:
        run_catalog_checks(n, POLICIES, seed=0, records_path=tmp_path / f"n{n}.jsonl")
    *n4, probe4 = (tmp_path / "n4.jsonl").read_bytes().splitlines(keepends=True)
    *n5, probe5 = (tmp_path / "n5.jsonl").read_bytes().splitlines(keepends=True)
    assert PROBE.encode() in probe4 and probe4 == probe5
    assert len(n5) > len(n4)
    assert b"".join(n5).startswith(b"".join(n4))


@pytest.mark.usefixtures("deadline")
def test_three_workers_give_the_serial_stream(tmp_path, monkeypatch):
    # more workers than this machine may have CPUs, each taking shards as it falls free
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forked = run_catalog_checks(5, POLICIES, seed=0, records_path=tmp_path / "forked.jsonl")
    assert len(forks) == 3
    one_cpu(monkeypatch)
    serial = run_catalog_checks(5, POLICIES, seed=0, records_path=tmp_path / "serial.jsonl")

    data = (tmp_path / "forked.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == N5_DIGEST
    assert (tmp_path / "serial.jsonl").read_bytes() == data
    del forked["elapsed_s"], serial["elapsed_s"]
    assert forked == serial


def pid_per_shard(shards):
    """``produce`` for ``dealt``: one item per shard naming the process that
    made it, with shard 0 made slowly."""
    for shard in shards:
        if shard == 0:
            time.sleep(0.3)
        yield b"%d" % os.getpid(), [shard]


@pytest.mark.usefixtures("deadline")
def test_a_free_worker_takes_the_next_shard():
    with dealt(pid_per_shard, range(12), 2) as items:
        items = list(items)
    assert [counts for _, counts in items] == [[shard] for shard in range(12)]
    slow, *rest = [pid for pid, _ in items]
    # while one worker is held up on shard 0, the other goes on with the shards after it
    assert sum(pid != slow for pid in rest) >= 9
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("deadline")
def test_dealing_goes_on_past_the_shards_dealt_ahead():
    # more shards than the parent deals ahead of shard 0: while it waits for
    # the slow worker, the other one sends every dealt shard and waits for
    # more, so the parent must read whichever pipe is ready and keep the
    # shards that arrive early, not wait on the slow worker alone
    with dealt(pid_per_shard, range(40), 2) as items:
        assert [counts for _, counts in items] == [[shard] for shard in range(40)]


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("shards", [0, 2])
def test_dealing_fewer_shards_than_workers(shards):
    with dealt(pid_per_shard, range(shards), 3) as items:
        assert [counts for _, counts in items] == [[shard] for shard in range(shards)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("deadline")
def test_an_interrupted_dealing_leaves_no_worker_and_no_open_pipe():
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    # the slow shard goes second: when the first item comes back, the worker
    # that took the slow one is still in it, and the other has run through
    # the shards dealt ahead and waits for more
    with pytest.raises(KeyboardInterrupt):
        with dealt(pid_per_shard, [1, 0, *range(2, 40)], 2) as items:
            for _ in items:
                raise KeyboardInterrupt
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == fds


def large_items(shards):
    """``produce`` for ``dealt``: one item per shard, larger than a pipe buffer."""
    for shard in shards:
        yield b"".join(b"%d %d\n" % (shard, line) for line in range(30_000)), [shard]


@pytest.mark.usefixtures("deadline")
def test_an_item_larger_than_a_pipe_buffer_comes_back_whole():
    expected = list(large_items(range(6)))
    assert min(len(data) for data, _ in expected) >= 200_000
    with dealt(large_items, range(6), 2) as items:
        assert list(items) == expected


_FRAME_ITEM = 200_000  # bytes of each shard's one item in the test below
_INTERPRETER_ALLOWANCE = 100_000  # traced bytes besides frames: 3-13 kB seen on Python 3.11


def slow_first_then_frame_sized(shards):
    """``produce`` for ``dealt``: one ``_FRAME_ITEM``-byte item per shard,
    with shard 0 made slowly."""
    for shard in shards:
        if shard == 0:
            time.sleep(0.3)
        yield bytes(_FRAME_ITEM), [shard]


@pytest.mark.usefixtures("deadline")
def test_the_parent_holds_no_more_frames_than_it_dealt_ahead():
    # while one worker sleeps on shard 0, the other sends every shard dealt
    # ahead, and the parent keeps them; then the consumer is slow, so the
    # workers are always ahead of it. Whatever the scheduling, the parent
    # holds at most the _AHEAD * workers frames dealt and not yet consumed:
    # one of them read as its parts and again joined, or unpacked beside its
    # payload, so one frame more, and the consumer's last item, one more.
    # Dealing all 60 shards at once would let it hold ~60
    workers, shards = 2, 60
    tracemalloc.start()
    try:
        with dealt(slow_first_then_frame_sized, range(shards), workers) as items:
            for _, counts in items:
                time.sleep(0.002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [shards - 1]
    frames = _AHEAD * workers + 1 + 1
    assert peak <= frames * _FRAME_ITEM + _INTERPRETER_ALLOWANCE


def slow_large_then_failing(shards):
    """``produce`` for ``dealt``: shard 0 made slowly, shards 0-2 larger than
    a pipe buffer, and shard 3 raising after one item."""
    for shard in shards:
        if shard == 0:
            time.sleep(0.3)
        if shard == 3:
            yield b"before the error", [3]
            raise RuntimeError("shard 3 failed")
        yield from large_items([shard])


@pytest.mark.usefixtures("deadline")
def test_an_error_in_a_shard_that_arrives_early_is_raised_in_its_place():
    # while one worker sleeps on shard 0, the other sends shards 1 and 2,
    # each larger than a pipe buffer, and then shard 3's error, so all three
    # arrive before their turn and wait in the parent
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    got = []
    with pytest.raises(RuntimeError, match="shard 3 failed") as raised:
        with dealt(slow_large_then_failing, range(6), 2) as items:
            for item in items:
                got.append(item)
    assert got == [*large_items(range(3)), (b"before the error", [3])]
    assert "raised in a worker process" in str(raised.value.__cause__)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == fds


def read_back(stream: bytes, got: list) -> None:
    """Append to ``got`` the items the parent reads from one worker that sent
    ``stream`` for shard 0 and stopped, as ``dealt`` deals one shard to one worker."""
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, stream)
        os.close(write_fd)
        for item in _in_shard_order(iter([0]), io.BytesIO(), [read_fd]):
            got.append(item)
    finally:
        os.close(read_fd)


def frame(number: int, items: list, error: bytes | None = None) -> bytes:
    """A worker's frame of one shard: its 8-byte number, the payload's 8-byte
    size, then the payload, the items and the error (None or pickled)."""
    payload = marshal.dumps((items, error))
    return number.to_bytes(8, "big") + len(payload).to_bytes(8, "big") + payload


def test_a_cut_frame_is_a_stopped_worker():
    items = [(b'{"graph": "g"}\n', [2, 0, 1]), (b'{"graph": "h"}\n', [1, 0, 0])]
    error = pickle.dumps((RuntimeError("stop"), "Traceback: in fail\n"))
    sent = frame(0, items)
    failed = frame(0, items[:1], error)

    got = []
    read_back(sent, got)
    assert got == items
    got = []
    with pytest.raises(RuntimeError, match="stop") as raised:
        read_back(failed, got)
    assert got == items[:1]
    assert "in fail" in str(raised.value.__cause__)
    # both frames cut at every byte, the empty stream included
    for stream in sent, failed:
        for cut in range(len(stream)):
            with pytest.raises(ChildProcessError, match="a worker stopped"):
                read_back(stream[:cut], [])


def test_a_process_with_threads_is_not_forked(monkeypatch):
    # a lock another thread holds at a fork would stay held in the child
    forks = count_forks(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        run_catalog_checks(5)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forks == []


def test_a_platform_without_cpu_affinity_is_not_forked(monkeypatch):
    # macOS has os.fork but no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 1
    forks = count_forks(monkeypatch)
    assert run_catalog_checks(5)["graphs"] == 771
    assert forks == []


# the 40th 5-vertex graph: the first of the 26th shard (the 16th of n=5, after
# one each for n=2 and n=3 and eight for n=4), which any worker may take
TARGET = 1 + 4 + 38 + 39
TARGET_SHARD = 25


def break_target(monkeypatch, fail):
    """Make checking the TARGET graph call ``fail()``; return the lines before it."""
    graphs = list(enumerate_connected_graphs(5))
    target = graphs[TARGET].graph_id()
    real = catalog.check_one_graph

    def check(graph, policy, seed):
        # matched by graph, not by call count: every worker counts its own calls
        if graph.graph_id() == target:
            fail()
        return real(graph, policy, seed)

    monkeypatch.setattr(catalog, "check_one_graph", check)
    return records_jsonl([r for g in graphs[:TARGET] for r in real(g, "fixed", 0)])


def collision_error():
    lg = LabeledGraph(path_graph(3), {"a": [1, 2], "b": [5], "c": [1, 2]})
    return LabelCollisionError(verify_iasi(lg).collision)


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("make_error", [lambda: RuntimeError("stop"), collision_error])
def test_forked_sweep_stops_at_a_failing_graph(tmp_path, monkeypatch, make_error):
    error = make_error()

    def fail():
        raise error

    finished = break_target(monkeypatch, fail)
    path = tmp_path / "records.jsonl"
    with pytest.raises(type(error)) as raised:
        run_catalog_checks(5, records_path=path)
    assert str(raised.value) == str(error)
    assert getattr(raised.value, "witness", None) == getattr(error, "witness", None)
    if len(os.sched_getaffinity(0)) >= 2:
        # the worker's traceback comes along as the cause
        assert "in fail\n" in str(raised.value.__cause__)
    assert path.read_text() == finished
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("deadline")
def test_a_worker_that_dies_stops_the_sweep(tmp_path, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the sweep forks no worker on one CPU")
    sweeper = os.getpid()

    def die():
        if os.getpid() != sweeper:
            os._exit(1)  # no error frame: the worker just stops

    finished = break_target(monkeypatch, die)
    path = tmp_path / "records.jsonl"
    with pytest.raises(ChildProcessError):
        run_catalog_checks(5, records_path=path)
    assert path.read_text() == finished
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("deadline")
def test_a_worker_that_dies_on_taking_a_shard_stops_the_sweep(tmp_path, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the sweep forks no worker on one CPU")
    sweeper = os.getpid()
    real = catalog._shards

    def shards(vertex_counts):
        # a worker walks its copy of the shards up to the one it took, so a
        # worker taking TARGET_SHARD or a later one stops here, before it
        # sends any frame for that shard
        for number, shard in enumerate(real(vertex_counts)):
            if number == TARGET_SHARD and os.getpid() != sweeper:
                os._exit(1)
            yield shard

    monkeypatch.setattr(catalog, "_shards", shards)
    graphs = list(enumerate_connected_graphs(5))
    finished = [r for g in graphs[:TARGET] for r in check_one_graph(g, "fixed", 0)]
    path = tmp_path / "records.jsonl"
    with pytest.raises(ChildProcessError):
        run_catalog_checks(5, records_path=path)
    assert path.read_text() == records_jsonl(finished)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def lines_before_target() -> str:
    """The JSONL lines of every graph before TARGET, as a sweep that stops there leaves them."""
    graphs = list(enumerate_connected_graphs(5))
    return records_jsonl([r for g in graphs[:TARGET] for r in check_one_graph(g, "fixed", 0)])


@pytest.mark.usefixtures("deadline")
def test_an_error_walking_to_a_shard_is_raised_in_its_place(tmp_path, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the sweep forks no worker on one CPU")
    sweeper = os.getpid()
    real = catalog._shards

    def shards(vertex_counts):
        # raised in a worker walking to TARGET_SHARD or a later one and sent
        # in the frame of the shard it took, so it is raised in that shard's
        # place, as a serial sweep raises it
        for number, shard in enumerate(real(vertex_counts)):
            if number == TARGET_SHARD and os.getpid() != sweeper:
                raise RuntimeError("stop walking")
            yield shard

    monkeypatch.setattr(catalog, "_shards", shards)
    finished = lines_before_target()
    path = tmp_path / "records.jsonl"
    with pytest.raises(RuntimeError, match="stop walking") as raised:
        run_catalog_checks(5, records_path=path)
    assert "raised in a worker process" in str(raised.value.__cause__)
    assert path.read_text() == finished
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("deadline")
def test_a_worker_that_dies_on_reading_a_task_stops_the_sweep(tmp_path, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the sweep forks no worker on one CPU")
    sweeper = os.getpid()
    real = os.read
    record = TARGET_SHARD.to_bytes(8, "big")

    def read(fd, size):
        data = real(fd, size)
        # a worker reads only 8-byte task records: this one took
        # TARGET_SHARD and stops before sending any frame for it
        if data == record and os.getpid() != sweeper:
            os._exit(1)
        return data

    monkeypatch.setattr(os, "read", read)
    finished = lines_before_target()
    path = tmp_path / "records.jsonl"
    with pytest.raises(ChildProcessError):
        run_catalog_checks(5, records_path=path)
    assert path.read_text() == finished
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_serial_sweep_memory_does_not_grow_with_the_catalog(monkeypatch):
    # serial, since tracemalloc sees only this process, not the workers; the
    # frames a forked parent holds are bounded by
    # test_the_parent_holds_no_more_frames_than_it_dealt_ahead
    one_cpu(monkeypatch)
    run_catalog_checks(3)  # warm import-time and first-call allocations

    def peak(max_n):
        tracemalloc.start()
        try:
            run_catalog_checks(max_n, records_path=os.devnull)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # n<=5 checks 771 graphs against n<=4's 43
    assert peak(5) <= 2 * peak(4)


def test_serial_sweep_retains_no_memory(monkeypatch):
    # the peak guard above also counts dead tuples parked in CPython's free
    # lists, which only a full collection empties; this one counts only what
    # a sweep leaves behind after one
    one_cpu(monkeypatch)
    run_catalog_checks(3, POLICIES)  # warm import-time and first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_catalog_checks(5, POLICIES, records_path=os.devnull)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1024


def graph_error():
    with pytest.raises(GraphValidationError) as raised:
        Graph(["a", "a"], [("a", "b")])
    return raised.value


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("make_error,payload", [
    (graph_error, "violations"),
    (collision_error, "witness"),
    (lambda: SchemaError("label must be a list of integers", context="labels.a"), "context"),
    (lambda: SchemaError("missing field 'labels'"), "context"),
])
def test_structured_errors_survive_pickling(make_error, payload, protocol):
    # a worker's error reaches the sweep as a pickle
    error = make_error()
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert getattr(copy, payload) == getattr(error, payload)
