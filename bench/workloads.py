"""The three workloads: inputs from a seed, a timed closed loop, and a traced replay.

Every workload is serial: one request at a time, the next sent when the
previous one returns, and no worker threads or processes beyond the
``iasi catalog`` child that catalog-n5 waits for.

* catalog-n5: the user command ``iasi catalog --max-n 5`` with all three
  policies, in a fresh process. A request is one command; an op is one
  graph x policy check (771 x 3) plus the K3 probe.
* construct-large: ``construct_arbitrary`` then the classifier, multiplier
  and gcd checks (what ``iasi construct`` does) on sparse 150-vertex graphs
  and a 48-vertex path. A request and an op are one (graph, policy) pair.
* transform-docs: load a labeling document, classify it, apply the five
  transforms and save and export every result. A request and an op are one
  document.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import gates
import hostspeed
import tracing

POLICIES = ("fixed", "random", "maximal")
CATALOG_MAX_N = 5
# Each sweep of a catalog-n5 run has its own catalog seed: the random
# policy's work varies by about a sixth from one catalog seed to another,
# and the median over a run's sweeps evens that out. Sweep r of a run with
# --seed S uses S * SWEEP_SEEDS + r, so --seed 0 sweeps the recorded seeds
# 0 and 1 first.
SWEEP_SEEDS = 1000
CHILD_TIMEOUT_S = 170

LARGE_GRAPHS = 3
LARGE_VERTICES = 150
LARGE_EDGES = 300
LARGE_SIZES = (3, 6)
PATH_VERTICES = 48
# The path is a fixed probe of the deep-path overflow, so its construction
# seed does not follow --seed: the workload's refusal count is then the same
# for every benchmark seed.
PATH_CONSTRUCTION_SEED = 0
# The documented deep-path overflow: these cases may raise LabelOverflowError
# and are then counted as refused, not failed. Any other case that raises it
# is a failure. A listed case that succeeds is gated like every other result,
# since making deep paths construct is an open item of the package.
EXPECTED_REFUSALS = frozenset(f"path{PATH_VERTICES}/{policy}" for policy in ("maximal", "random"))

CORPUS_DOCS = 200
CORPUS_MIN_VERTICES = 20
CORPUS_MAX_VERTICES = 80


@dataclass
class Measurement:
    """What one run saw: time per request, outcomes and gate problems.

    A request is keyed by its input (the sweep, the case, the document), and
    every round repeats every key once. A ``clock`` also gives each
    request's time normalized to the reference host speed.
    """

    clock: hostspeed.HostClock | None = None
    ops: int = 0
    failed: int = 0
    refused: int = 0
    wall_s: dict = field(default_factory=dict)  # key -> [wall seconds, one per round]
    norm_s: dict = field(default_factory=dict)  # key -> [normalized seconds, one per round]
    key_ops: dict = field(default_factory=dict)  # key -> ops in one request
    child_maxrss_kb: int = 0
    problems: list = field(default_factory=list)

    def request(self, key, elapsed_s: float, ops: int = 1):
        self.ops += ops
        self.wall_s.setdefault(key, []).append(elapsed_s)
        self.key_ops[key] = ops
        if self.clock is not None:
            self.normalized(self.clock.add(key, elapsed_s))

    def normalized(self, done):
        for key, seconds in done:
            self.norm_s.setdefault(key, []).append(seconds)

    @staticmethod
    def typical_s(times: dict) -> dict:
        """Each key's median time over the rounds.

        The host these numbers come from is shared and now and then stalls
        one request for a large fraction of its time; the median over rounds
        keeps such a stall out of the throughput and percentiles.
        """
        return {key: statistics.median(values) for key, values in times.items()}


def run_child(argv, cwd, env=None) -> tuple[subprocess.CompletedProcess, float]:
    """Run a process to completion; returns it and its wall time.

    Raises ``subprocess.TimeoutExpired`` after ``CHILD_TIMEOUT_S``, once the
    child has been killed and waited for.
    """
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - start


# The user command ``iasi catalog`` (``cli.main``), then the process's own
# peak RSS on stderr. ru_maxrss from wait4 would not do: Linux carries the
# parent's peak over into a child at exec, which would hide any drop below
# the benchmark's own footprint.
_CATALOG_CHILD = """
import sys
from iasi.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
print("peak_rss_kb", peak[0], file=sys.stderr)
sys.exit(code)
"""


def _sparse_connected(rng: random.Random, names, edge_count):
    """A random recursive tree over shuffled vertices plus uniform extra edges."""
    n = len(names)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < edge_count:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return [(names[a], names[b]) for a, b in sorted(edges)]


def _next_prime(n: int) -> int:
    p = max(n, 2)
    while any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        p += 1
    return p


def corpus_document(rng: random.Random, n: int) -> dict:
    """An arithmetic labeling document built without ``iasi``.

    Vertex differences are d or 2d, so every edge's multiplier is 1 or 2
    and never exceeds a label size (>= 3): every edge label is a
    progression. First terms are Erdos-Turan offsets 2pk + (k^2 mod p), a
    Sidon set, scaled by a stride wider than twice the largest span, so
    vertex labels and edge labels are all distinct.
    """
    names = [f"v{j:02d}" for j in range(n)]
    edges = _sparse_connected(rng, names, (3 * n) // 2)
    d = rng.choice((1, 2, 3))
    diffs = [d * rng.choice((1, 2)) for _ in range(n)]
    lengths = [rng.randint(3, 6) for _ in range(n)]
    stride = 2 * max((k - 1) * df for k, df in zip(lengths, diffs)) + 1
    p = _next_prime(n)
    offsets = [2 * p * k + (k * k) % p for k in range(n)]
    rng.shuffle(offsets)
    labels = {
        names[j]: [offsets[j] * stride + t * diffs[j] for t in range(lengths[j])]
        for j in range(n)
    }
    return {"graph": {"vertices": names, "edges": [list(e) for e in edges]}, "labels": labels}


def corpus_texts(seed: int) -> list[str]:
    """The transform-docs corpus: vertex counts spread evenly over 20..80, order and
    structure drawn from the seed, so every seed costs about the same."""
    rng = random.Random(f"transform-docs/{seed}")
    span = CORPUS_MAX_VERTICES - CORPUS_MIN_VERTICES
    sizes = [CORPUS_MIN_VERTICES + (span * i) // (CORPUS_DOCS - 1) for i in range(CORPUS_DOCS)]
    rng.shuffle(sizes)
    return [json.dumps(corpus_document(rng, n)) + "\n" for n in sizes]


class Workload:
    """One workload: built from (iasi, seed, workdir), then measured or replayed."""

    name = ""
    # False when the package runs in child processes rather than in this one.
    in_process = True

    def __init__(self, iasi, seed: int, workdir: Path, src: Path):
        self.iasi = iasi
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.inputs = self.make_inputs(iasi, seed)

    @staticmethod
    def make_inputs(iasi, seed: int):
        """The workload's inputs, built in memory from the seed; timed as set-up."""
        return None

    def measure(self, seconds: float, clock: hostspeed.HostClock) -> Measurement:
        """Whole rounds, as many as fit ``seconds`` at the first round's pace.

        Rounds are never cut short, so every run sees the same mix of
        inputs and the same share of refusals. The host clock's samples
        count towards ``seconds``.
        """
        m = Measurement(clock=clock)
        start = time.perf_counter()
        self.replay(m)
        first = time.perf_counter() - start
        for _ in range(max(1, round(seconds / first)) - 1):
            self.replay(m)
        m.normalized(clock.close())
        return m

    def replay(self, m: Measurement):
        """One round of the workload's requests, gated, added to ``m``."""
        raise NotImplementedError

    def trace(self, tracer) -> tuple[Measurement, dict]:
        """An untraced round, then a traced one; returns both rounds and extra layer values."""
        m = Measurement()
        start = time.perf_counter()
        self.replay(m)
        untraced = time.perf_counter() - start
        with tracing.patched(tracer):
            start = time.perf_counter()
            self.replay(m)
            traced = time.perf_counter() - start
        extra = {"overhead_ratio": traced / untraced - 1.0}
        extra.update(self.replay_offsets(tracer))
        return m, extra

    def offset_sizes(self) -> list[int]:
        """Vertex count of every automatic-offset construction in one round."""
        return []

    def replay_offsets(self, tracer) -> dict:
        """Time ``distinct_sum_sequence`` once per distinct size, weighted by use."""
        sizes = self.offset_sizes()
        total = 0.0
        for n in sorted(set(sizes)):
            with tracer.span("construct.distinct_sum_sequence"):
                repeats, start = 0, time.perf_counter()
                while True:
                    self.iasi.distinct_sum_sequence(n)
                    repeats += 1
                    elapsed = time.perf_counter() - start
                    if elapsed >= 0.01:
                        break
            total += elapsed / repeats * sizes.count(n)
        return {"distinct_sum_sequence_s": total}


class CatalogN5(Workload):
    name = "catalog-n5"
    in_process = False

    def __init__(self, iasi, seed, workdir, src):
        super().__init__(iasi, seed, workdir, src)
        self.records = workdir / "records.jsonl"
        self.ops_per_sweep = gates.CATALOG_N5.graphs * len(POLICIES) + 1
        self.sweeps = 0

    def args(self, catalog_seed: int) -> list[str]:
        args = ["catalog", "--max-n", str(CATALOG_MAX_N)]
        for policy in POLICIES:
            args += ["--policy", policy]
        return args + ["--seed", str(catalog_seed), "--records", str(self.records)]

    def _check(self, data: bytes, summary: dict, returncode: int, catalog_seed: int) -> list:
        problems = gates.catalog_stream_problems(data, catalog_seed, summary)
        outcomes = summary.get("outcomes", {})
        expected_exit = 1 if outcomes.get("fail") or outcomes.get("discrepancy") else 0
        if returncode != expected_exit:
            problems.append(f"iasi catalog exited {returncode}, expected {expected_exit}")
        return problems

    def replay(self, m):
        catalog_seed = self.seed * SWEEP_SEEDS + self.sweeps % SWEEP_SEEDS
        self.sweeps += 1
        self.records.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(self.src))
        start = time.perf_counter()
        try:
            child, wall = run_child([sys.executable, "-c", _CATALOG_CHILD] + self.args(catalog_seed),
                                    self.workdir, env)
        except subprocess.TimeoutExpired:
            m.request("sweep", time.perf_counter() - start, self.ops_per_sweep)
            m.failed += self.ops_per_sweep
            m.problems.append(f"iasi catalog did not finish within {CHILD_TIMEOUT_S} s")
            return
        m.request("sweep", wall, self.ops_per_sweep)
        try:
            summary = json.loads(child.stdout.strip().splitlines()[-1])
            data = self.records.read_bytes()
            _, peak_kb = child.stderr.strip().splitlines()[-1].split()
            m.child_maxrss_kb = max(m.child_maxrss_kb, int(peak_kb))
        except (IndexError, ValueError, OSError) as exc:
            problems = [f"iasi catalog produced no result ({exc}): {child.stderr[-400:]}"]
        else:
            problems = self._check(data, summary, child.returncode, catalog_seed)
        if problems:
            m.failed += self.ops_per_sweep
            m.problems += problems

    def trace(self, tracer):
        """Run ``iasi catalog`` in-process untraced, then replay it per graph with tracing.

        The replay calls ``check_one_graph`` once per graph and policy, then
        the probe and the serializer; its stream must hash the same as the
        command's records file. Both use the first sweep's catalog seed.
        """
        iasi = self.iasi
        from iasi import cli

        catalog_seed = self.seed * SWEEP_SEEDS
        self.records.unlink(missing_ok=True)
        captured = _stdio.StringIO()
        with tracer.span("cli.main"), contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            returncode = cli.main(self.args(catalog_seed))
            untraced = time.perf_counter() - start
        summary = json.loads(captured.getvalue().strip().splitlines()[-1])
        reference = self.records.read_bytes()
        m = Measurement(ops=self.ops_per_sweep)
        m.problems = self._check(reference, summary, returncode, catalog_seed)

        with tracing.patched(tracer):
            start = time.perf_counter()
            with tracer.span("catalog.enumerate"):
                graphs = list(iasi.enumerate_connected_graphs(CATALOG_MAX_N))
            records = []
            for graph in graphs:
                for policy in POLICIES:
                    records.extend(iasi.check_one_graph(graph, policy, catalog_seed))
            records.append(iasi.probe_k3_three_index())
            with tracer.span("catalog.serialize"):
                stream = iasi.records_jsonl(records).encode("utf-8")
            traced = time.perf_counter() - start
        m.ops += len(graphs) * len(POLICIES) + 1
        if gates.sha256(stream) != gates.sha256(reference):
            m.problems.append("traced replay stream differs from the iasi catalog records")
        if m.problems:
            m.failed = m.ops
        masks = sum((1 << comb(n, 2)) - 1 for n in range(2, CATALOG_MAX_N + 1))
        extra = {
            "overhead_ratio": traced / untraced - 1.0,
            "enumerate_graphs": len(graphs),
            "enumerate_masks": masks,
            "serialize_bytes": len(stream),
        }
        self._graph_sizes = [len(g.vertices) for g in graphs for _ in POLICIES]
        extra.update(self.replay_offsets(tracer))
        return m, extra

    def offset_sizes(self):
        return self._graph_sizes


class ConstructLarge(Workload):
    name = "construct-large"

    @staticmethod
    def make_inputs(iasi, seed):
        """(case, graph, construction params) for every request of one round."""
        rng = random.Random(f"construct-large/{seed}")
        names = [f"v{i:03d}" for i in range(LARGE_VERTICES)]
        cases = []
        for g in range(LARGE_GRAPHS):
            graph = iasi.Graph(names, _sparse_connected(rng, names, LARGE_EDGES))
            construction_seed = rng.randrange(2**32)
            for policy in POLICIES:
                cases.append((f"sparse{g}/{policy}", graph, iasi.ConstructionParams(
                    label_size_range=LARGE_SIZES, multiplier_policy=policy, seed=construction_seed)))
        path_names = [f"p{i:02d}" for i in range(PATH_VERTICES)]
        path = iasi.Graph(path_names, list(zip(path_names, path_names[1:])))
        for policy in POLICIES:
            cases.append((f"path{PATH_VERTICES}/{policy}", path, iasi.ConstructionParams(
                label_size_range=LARGE_SIZES, multiplier_policy=policy,
                seed=PATH_CONSTRUCTION_SEED)))
        return cases

    def replay(self, m):
        iasi = self.iasi
        for case, graph, params in self.inputs:
            start = time.perf_counter()
            try:
                result = iasi.construct_arbitrary(graph, params)
                lg = result.labeled_graph
                report = iasi.classify_arithmetic(lg)
                multiplier = iasi.check_multiplier_condition(lg)
                gcd = iasi.check_gcd_invariant(lg)
            except iasi.LabelOverflowError:
                outcome = "refused"
            except Exception as exc:  # any other exception is a defect to report
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = "ok"
            m.request(case, time.perf_counter() - start)
            if outcome == "refused" and case in EXPECTED_REFUSALS:
                m.refused += 1
                continue
            if outcome == "refused":
                outcome = "unexpected LabelOverflowError"
            if outcome != "ok":
                m.failed += 1
                m.problems.append(f"{case}: {outcome}")
                continue
            problems = []
            if lg.graph != graph:
                problems.append("labeled graph is not the input graph")
            problems += gates.labeling_problems(lg.graph.edges, lg.vertex_labels)
            verdicts = (report.is_iasi, report.arithmetic, multiplier.ok, gcd.ok)
            if not all(verdicts):
                problems.append(f"iasi verdicts (iasi, arithmetic, multiplier, gcd) = {verdicts}")
            if problems:
                m.failed += 1
                m.problems += [f"{case}: {p}" for p in problems]

    def offset_sizes(self):
        return [len(graph.vertices) for _, graph, _ in self.inputs]


class TransformDocs(Workload):
    name = "transform-docs"

    def __init__(self, iasi, seed, workdir, src):
        super().__init__(iasi, seed, workdir, src)
        (workdir / "corpus").mkdir()
        self.corpus = [workdir / "corpus" / f"doc{i:03d}.json" for i in range(len(self.inputs))]
        for path, text in zip(self.corpus, self.inputs):
            path.write_text(text, encoding="utf-8")
        self.out = workdir / "out"
        self.out.mkdir()
        self.doc_verdicts: dict[int, tuple[str, list]] = {}  # doc -> (digest, problems), first pass

    @staticmethod
    def make_inputs(iasi, seed):
        return corpus_texts(seed)

    def _ops(self, lg):
        iasi = self.iasi
        graph = lg.graph
        first = graph.edges[0]
        ops = [
            ("contract", lambda: iasi.contract_edge(lg, first)),
            ("subdivide", lambda: iasi.subdivide(lg, first)),
        ]
        for v in graph.vertices:
            if graph.degree(v) == 2:
                u, w = graph.neighbors(v)
                if not graph.has_edge(u, w):
                    ops.append(("reduce", lambda v=v: iasi.reduce_topologically(lg, v)))
                    break
        ops += [("line", lambda: iasi.to_line_graph(lg)), ("total", lambda: iasi.to_total_graph(lg))]
        return ops

    def _document(self, i: int):
        """The timed pipeline for one document; returns (input, report, outcomes)."""
        iasi = self.iasi
        lg = iasi.load_document(self.corpus[i])
        report = iasi.classify_arithmetic(lg)
        outcomes = []
        for op, fn in self._ops(lg):
            try:
                out = fn()
            except iasi.LabelCollisionError as exc:
                c = exc.witness
                outcomes.append((op, None, {"kind": c.kind, "first": c.first,
                                            "second": c.second, "label": list(c.label)}))
                continue
            stem = self.out / f"doc{i:03d}-{op}"
            iasi.save_document(out, stem.with_suffix(".json"))
            iasi.export_dot(out, stem.with_suffix(".dot"))
            outcomes.append((op, stem, None))
        return lg, report, outcomes

    def _check(self, i, lg, report, outcomes) -> list:
        """Gate one document's outputs and fold them into its digest.

        Outputs byte-identical to the first pass's get that pass's verdict
        without being parsed and checked again.
        """
        problems = []
        if not (report.is_iasi and report.arithmetic):
            problems.append(f"doc{i:03d}: input not classified as an arithmetic IASI")
        outputs = []
        digest = hashlib.sha256()
        for op, stem, witness in outcomes:
            digest.update(op.encode("ascii"))
            if witness is not None:
                digest.update(json.dumps(witness, sort_keys=True).encode("utf-8"))
                outputs.append((op, witness, None, None))
                continue
            doc_bytes = stem.with_suffix(".json").read_bytes()
            dot_bytes = stem.with_suffix(".dot").read_bytes()
            # Removed once read, so that each pass creates its files afresh and
            # no output reaches the disk to be written back during a later request.
            stem.with_suffix(".json").unlink()
            stem.with_suffix(".dot").unlink()
            digest.update(doc_bytes)
            digest.update(dot_bytes)
            outputs.append((op, None, doc_bytes, dot_bytes))
        hexdigest = digest.hexdigest()
        first = self.doc_verdicts.get(i)
        if first is not None and first[0] == hexdigest:
            return problems + first[1]
        verdict = self._output_problems(i, lg, outputs)
        if first is None:
            self.doc_verdicts[i] = (hexdigest, verdict)
        else:
            verdict.append(f"doc{i:03d}: outputs differ between passes")
        return problems + verdict

    @staticmethod
    def _output_problems(i, lg, outputs) -> list:
        """Check each saved result and collision witness of one document."""
        n, m = len(lg.graph.vertices), len(lg.graph.edges)
        pairs = sum(comb(lg.graph.degree(v), 2) for v in lg.graph.vertices)
        expected = {"contract": (n - 1, None), "subdivide": (n + 1, m + 1), "reduce": (n - 1, m - 1),
                    "line": (m, pairs), "total": (n + m, 3 * m + pairs)}
        problems = []
        for op, witness, doc_bytes, dot_bytes in outputs:
            if witness is not None:
                if witness["kind"] not in ("vertex", "edge") or witness["first"] == witness["second"]:
                    problems.append(f"doc{i:03d} {op}: malformed collision witness {witness}")
                continue
            graph = json.loads(doc_bytes)["graph"]
            want_n, want_m = expected[op]
            if len(graph["vertices"]) != want_n or want_m not in (None, len(graph["edges"])):
                problems.append(f"doc{i:03d} {op}: {len(graph['vertices'])} vertices, "
                                f"{len(graph['edges'])} edges")
            problems += [f"doc{i:03d} {op}: {p}" for p in
                         gates.document_output_problems(doc_bytes, dot_bytes)]
        return problems

    def corpus_problems(self) -> list:
        """The digest over one full pass against the value recorded for this seed."""
        if len(self.doc_verdicts) < len(self.corpus):
            return ["corpus not fully processed"]
        whole = gates.sha256("".join(self.doc_verdicts[i][0] for i in range(len(self.corpus))).encode())
        recorded = gates.TRANSFORM_DOCS_SHA.get(self.seed)
        if recorded is not None and whole != recorded:
            return [f"transform-docs outputs for seed {self.seed} changed"]
        return []

    def replay(self, m):
        failed = 0
        for doc in range(len(self.corpus)):
            start = time.perf_counter()
            try:
                lg, report, outcomes = self._document(doc)
            except Exception as exc:  # any exception but a collision is a defect to report
                m.request(doc, time.perf_counter() - start)
                failed += 1
                m.problems.append(f"doc{doc:03d}: {type(exc).__name__}: {exc}")
                continue
            m.request(doc, time.perf_counter() - start)
            problems = self._check(doc, lg, report, outcomes)
            if problems:
                failed += 1
                m.problems += problems
        problems = self.corpus_problems()
        if problems:
            # The whole-corpus digest gates every document of the round.
            failed = len(self.corpus)
            m.problems += problems
        m.failed += failed


WORKLOADS = {w.name: w for w in (CatalogN5, ConstructLarge, TransformDocs)}
