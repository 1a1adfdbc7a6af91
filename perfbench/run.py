"""perfbench: the repo benchmark of word-length optimization.

Usage (from the repository root):

    python3 perfbench/run.py --workload greedy-fir --seed 1 --seconds 15 --trace 0

Runs one workload (see ``workloads.py``) repeatedly for ``--seconds``,
checks every returned design, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced operations alternate and the metrics are the
per-layer ones (per operation) plus the tracing overhead.  The seed
drives Monte-Carlo validation and job seeds; the circuits are fixed.
Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fewest operations of an untraced run, so per-case medians have a middle.
MIN_OPERATIONS = 3
#: Fewest fresh-interpreter set-ups timed per untraced run.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

#: Spans reported as ``<name>.calls`` and ``<name>.s``.
TIMED_SPANS = (
    "dfg.successors", "cost.reprice", "cost.affected_by", "cost.price",
    "problem.evaluate", "problem.predicted_noise_increase",
    "incremental.noise_power", "incremental.commit", "pna.affine_error_pdf",
    "batched.price_moves", "pareto.rescoped", "mc", "jobs.run",
)
#: Spans reported as ``<name>.s`` only.
SECONDS_SPANS = (
    "dfg.trace", "dfg.infer_ranges", "dfg.partition", "gains.transfer_gains",
    "batched.compile",
)
COUNTERS = (
    "problem.analyzer_calls", "incremental.nodes_recomputed", "batched.lanes",
    "batched.fallback_probes", "mc.samples", "jobs.jobs", "jobs.attempts",
    "jobs.retries", "jobs.job_wall_s", "jobs.job_cpu_s", "decomposed.partitions",
)
RANKING_SPANS = ("cost.reprice", "cost.affected_by", "cost.price", "dfg.successors")
ANALYSIS_SPANS = (
    "incremental.noise_power", "incremental.commit", "analyzer.analyze",
    "batched.compile", "batched.price_moves", "pna.affine_error_pdf",
)


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_db"):
        return "dB"
    if name.endswith(("ratio", "share", "efficiency", "frac")):
        return "ratio"
    return "count"


def probe_setup(workload: str) -> float:
    """Seconds from a fresh interpreter to the workload's constructed problems."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe of {workload} failed (exit {code})")
    return elapsed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def search_counts(ops) -> dict:
    """Greedy shaves and decomposed outer iterations from result traces."""
    counts = {"shaves": 0, "accepted": 0, "outer": 0}
    for op in ops:
        for _index, design in op.designs:
            for record in design.result.iterations:
                if " shave " in record.action:
                    counts["shaves"] += 1
                    counts["accepted"] += int(record.accepted)
                elif record.action.startswith("outer "):
                    counts["outer"] += 1
    return counts


def tracing_overhead(ops) -> float:
    """Median over traced operations of their excess over their untraced neighbours.

    Operations alternate untraced (even index) and traced (odd index);
    comparing each traced one with the untraced ones on either side
    cancels a machine that drifts slower or faster during the run.
    """
    excess = []
    for index in range(1, len(ops), 2):
        neighbours = [ops[j].wall_s for j in (index - 1, index + 1) if j < len(ops)]
        excess.append(ops[index].wall_s - statistics.mean(neighbours))
    return statistics.median(excess)


def layer_metrics(recorder, ops) -> dict:
    traced = ops[1::2]
    n = len(traced)
    spans, counters = recorder.spans, recorder.counters
    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}.calls"] = spans[name][0] / n
        metrics[f"{name}.s"] = spans[name][1] / n
    for name in SECONDS_SPANS:
        metrics[f"{name}.s"] = spans[name][1] / n
    metrics["analyzer.analyze.calls"] = spans["analyzer.analyze"][0] / n
    for name in COUNTERS:
        metrics[name] = counters[name] / n
    counts = search_counts(traced)
    metrics["decomposed.outer_iterations"] = counts["outer"] / n
    evaluations = spans["problem.evaluate"][0]
    metrics["problem.cache_hit_ratio"] = (
        counters["problem.cache_hits"] / evaluations if evaluations else 0.0
    )
    metrics["greedy.accept_ratio"] = (
        counts["accepted"] / counts["shaves"] if counts["shaves"] else 0.0
    )
    capacity = counters["jobs.capacity_s"]
    metrics["jobs.parallel_efficiency"] = (
        counters["jobs.job_cpu_s"] / capacity if capacity else 0.0
    )
    traced_wall = sum(op.wall_s for op in traced)
    metrics["self.ranking_share"] = sum(spans[s][2] for s in RANKING_SPANS) / traced_wall
    metrics["self.analysis_share"] = sum(spans[s][2] for s in ANALYSIS_SPANS) / traced_wall
    overhead = tracing_overhead(ops)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(op.wall_s for op in ops[::2])
    return metrics


def case_medians(ops, attr: str) -> float:
    """Sum over cases of each case's median across operations.

    Equals the median operation time for one-case workloads; for the
    Pareto suite it discards a slow burst that hit one sweep of one
    operation instead of averaging it into that operation's total.
    """
    per_case = [getattr(op, attr) for op in ops]
    return sum(
        statistics.median(times[index] for times in per_case if index in times)
        for index in per_case[0]
    )


def end_to_end_metrics(ops, setup_s: float) -> dict:
    import workloads

    first = ops[0]
    return {
        "wall_s": case_medians(ops, "case_wall_s"),
        "cpu_s": case_medians(ops, "case_cpu_s"),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "cost_ratio": workloads.cost_ratio(first),
        "pessimism_db": statistics.median(workloads.pessimism(first)),
    }


def run(args) -> int:
    import numpy
    import tracer
    import workloads

    print(
        f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )
    # Set-up probes run between operations, so their median samples the
    # machine across the whole run rather than one burst at its start.
    setup_times = []
    ops = []
    recorder = tracer.Recorder()
    started = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(ops) % 2 == 1
        if trace_this:
            tracer.install(recorder)
        try:
            op = workloads.run_operation(args.workload, args.seed)
        finally:
            recorder.restore()
        ops.append(op)
        if not args.trace:
            setup_times.append(probe_setup(args.workload))
        done = time.perf_counter() - started >= args.seconds
        if done and len(ops) >= (2 if args.trace else MIN_OPERATIONS):
            break
    while not args.trace and len(setup_times) < SETUP_REPEATS:
        setup_times.append(probe_setup(args.workload))

    attempted = failed = 0
    failures = []
    reference_digest = None
    reference = HERE / "reference.json"
    if reference.is_file():
        reference_digest = json.loads(reference.read_text()).get(args.workload, {}).get("digest")
    digests = set()
    for op in ops:
        violations = workloads.check_designs(op)
        attempted += op.attempted
        failed += len(violations)
        failures.extend(msg for msgs in violations.values() for msg in msgs)
        digests.add(workloads.digest(op))
    if len(digests) != 1:
        failed += 1
        attempted += 1
        failures.append(f"repeated operations returned different designs: {sorted(digests)}")
    for name, circuit_hash in workloads.input_hashes(ops[0]).items():
        print(f"perfbench: input {name} circuit_hash={circuit_hash}")
    digest = workloads.digest(ops[0])
    verdict = (
        "no reference" if reference_digest is None
        else "matches reference" if digest == reference_digest
        else "CHANGED from reference"
    )
    print(f"perfbench: designs digest={digest} ({verdict})")
    for message in failures:
        print(f"perfbench: FAIL {message}")
    print(
        f"perfbench: operations={len(ops)} attempted={attempted} failed={failed} "
        f"failed_frac={failed / attempted:.4g} op_wall_s="
        + ",".join(f"{op.wall_s:.3f}" for op in ops)
    )

    if args.trace:
        values = layer_metrics(recorder, ops)
        ranked = sorted(recorder.spans.items(), key=lambda item: -item[1][2])[:6]
        print("perfbench: largest self time per traced operation: " + ", ".join(
            f"{name} {record[2] / len(ops[1::2]):.3f}s" for name, record in ranked))
    else:
        values = end_to_end_metrics(ops, statistics.median(setup_times))
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
