"""Benchmark of the iasi package: three workloads, output gates, a traced run.

Run from the repository root:

    python3 bench/run.py --workload catalog-n5 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload transform-docs --seed 0 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run context. With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones from a traced replay. The exit
code is 1 when an output gate fails and 2 when the package source is not
found next to the benchmark (``src/iasi``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import hostspeed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 9


def _import_iasi():
    """Import the package from this checkout's ``src``; None when it is not there."""
    if not (SRC / "iasi" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import iasi

    if SRC not in Path(iasi.__file__).resolve().parents:
        return None
    return iasi


def _git_sha():
    """HEAD from the checkout's ``.git`` when there is one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[list, list]:
    """Wall times of fresh processes that start, import and build the inputs in memory.

    Writing the corpus to disk is left out: right after an earlier run has
    written and deleted its outputs, file creation times vary by half.
    Returns the times and the problems; the first failed process ends it.
    """
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            child, wall = workloads.run_child(argv, workdir)
        except subprocess.TimeoutExpired:
            times.append(time.perf_counter() - start)
            return times, [f"set-up process did not finish within {workloads.CHILD_TIMEOUT_S} s"]
        times.append(wall)
        if child.returncode != 0:
            return times, [f"set-up process failed: {child.stderr[-400:]}"]
    return times, []


def _timings(times: dict, ops: int) -> tuple[float, float, float]:
    """Throughput, p50 and p95 in ms from each key's median time over the rounds."""
    typical = workloads.Measurement.typical_s(times)
    typical_ms = sorted(t * 1000 for t in typical.values())
    return (ops / sum(typical.values()),
            tracing.percentile(typical_ms, 50), tracing.percentile(typical_ms, 95))


def end_to_end(iasi, args, workdir: Path):
    clock = hostspeed.HostClock()
    setup_times, problems = measure_setup(args.workload, args.seed, workdir)
    if problems:
        # No workload is run on inputs that could not be set up.
        return problems, 1, 1, {"setup_s": (statistics.median(setup_times), "s")}, {"setup_failed": True}
    setup_norm = [done for t in setup_times for done in clock.add("setup", t)] + clock.close()
    setup_s = statistics.median(t for _, t in setup_norm)
    workload = workloads.WORKLOADS[args.workload](iasi, args.seed, workdir, SRC)
    m = workload.measure(args.seconds, clock)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = m.child_maxrss_kb
    ops = sum(m.key_ops.values())
    throughput, p50, p95 = _timings(m.norm_s, ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_throughput_ops_per_s": (throughput, "1/s"),
        "norm_request_p50_ms": (p50, "ms"),
        "norm_request_p95_ms": (p95, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "success_rate": ((m.ops - m.failed - m.refused) / m.ops, "ratio"),
    }
    # The same timings in plain wall time, and the host's median speed.
    throughput, p50, p95 = _timings(m.wall_s, ops)
    detail = {"setup_wall_s": statistics.median(setup_times),
              "ops": m.ops, "failed": m.failed, "refused": m.refused,
              "requests": sum(len(times) for times in m.wall_s.values()),
              "rounds": len(next(iter(m.wall_s.values()))),
              "wall_busy_s": sum(sum(times) for times in m.wall_s.values()),
              "throughput_ops_per_s": throughput, "request_p50_ms": p50, "request_p95_ms": p95,
              "host_samples": len(clock.samples),
              "host_speed": hostspeed.REFERENCE_S / statistics.median(clock.samples)}
    return m.problems, m.ops, m.failed, metrics, detail


def traced(iasi, args, workdir: Path):
    workload = workloads.WORKLOADS[args.workload](iasi, args.seed, workdir, SRC)
    tracer = tracing.Tracer()
    m, extra = workload.trace(tracer)
    metrics = tracing.layer_metrics(tracer, extra)
    spans_path = RUNS / f"trace-{args.workload}.spans"
    tracer.write(spans_path)
    detail = {"ops": m.ops, "refused": m.refused, "spans": len(tracer.start),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return m.problems, m.ops, m.failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    iasi = _import_iasi()
    if iasi is None:
        print(f"error: no iasi package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.WORKLOADS[args.workload].make_inputs(iasi, args.seed)
        return 0
    failures = gates.self_test()
    if failures:
        for failure in failures:
            print(f"gate self-test: {failure}", file=sys.stderr)
        return 1

    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        run = traced if args.trace else end_to_end
        problems, attempted, failed, metrics, detail = run(iasi, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    context = run_context(args)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    log = RUNS / f"result-{args.workload}-trace{args.trace}.json"
    log.write_text(json.dumps({"context": context, "detail": detail, **result}, indent=1) + "\n")
    print(json.dumps({"context": context, "detail": detail}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
