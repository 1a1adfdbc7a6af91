"""Benchmark driver: incremental vs full analysis on the optimizer's hot path.

Measures, per circuit x analysis method:

* **equivalence** — randomized single- and multi-node word-length
  perturbations analyzed both incrementally
  (:class:`~repro.analysis.incremental.IncrementalAnalyzer`) and from
  scratch (:class:`~repro.noisemodel.analyzer.DatapathNoiseAnalyzer`),
  compared field by field.  Every method must match bit for bit
  (``EQUIV_RTOL`` is 0);
* **greedy inner-loop speedup** — the greedy bit-stealing descent is run
  on an incremental problem while logging every candidate it actually
  analyzes; the logged candidates are then re-analyzed from scratch
  (exactly what the evaluator did before this engine existed).  The
  ratio of full-replay time to the engine's measured analysis time is
  the speedup of the optimizer's inner loop — recorded both in
  wall-clock (``time.perf_counter``) and CPU (``time.process_time``)
  terms, because shared CI runners make wall clocks noisy;
* **end-to-end optimizer wall time** — ``greedy.optimize()`` with the
  incremental engine vs the from-scratch (``engine="fresh"``) evaluator;
* **batched equivalence** — the same perturbations priced in one
  :class:`~repro.analysis.batched.BatchedAnalyzer` array pass vs the
  from-scratch report.  IA compiles to the vectorized program, other
  methods route through incremental probes; both must match
  **exactly** (relative error 0);
* **batched greedy inner-loop speedup** (IA only — the method with a
  compiled vector path) — the batched greedy descent is run while
  logging every ``price_moves`` sweep; the logged sweeps are then
  replayed both through the batched engine and as the per-move
  incremental probes they replaced.  The ratio is the speedup of
  pricing the greedy frontier, gated on the wide gate circuits
  (``BATCHED_GATE_CIRCUITS``): at least ``BATCHED_GATE_QUORUM`` of them
  must reach ``--min-batched-speedup`` (narrow circuits offer too few
  moves per sweep to amortize an array pass, so the gate tracks the
  circuits the engine exists for).

Each (circuit x method) pair is one job sharded through
:class:`~repro.jobs.runner.JobRunner` (``--workers N``); per-job seeds
derive from the pair key, so any worker count merges to the same
verdicts and bounds.

The exit code is the CI gate.  It is non-zero unless:

* every equivalence trial passes (gate (a)), and
* on the gate circuits (``fft_butterfly`` and ``matmul2`` — widest
  fan-in / multi-output designs of the library), the best per-method
  greedy inner-loop speedup is at least ``--min-speedup`` (default 5x).
  ``--smoke`` lowers the floor to 2x **and gates on CPU-time speedup**:
  wall clocks on shared millisecond-scale CI loops flake, while CPU
  time is immune to scheduling noise.  Shallow 10-node circuits bound
  the *worst* method near the cone/graph ratio, so the gate tracks the
  best method per circuit; every per-method number is reported in the
  JSON.

The document keeps the ``circuits -> results/enclosure/total_runtime_s``
shape of ``BENCH_analysis.json``, so ``compare_bench`` can diff a head
run against a merge-base run and fail on runtime regressions or on an
equivalence verdict that flips to False.

Usage::

    PYTHONPATH=src python -m repro.benchmarks.bench_perf              # full run
    PYTHONPATH=src python -m repro.benchmarks.bench_perf --smoke      # CI-sized
    PYTHONPATH=src python -m repro.benchmarks.bench_perf --workers 4  # sharded
"""

from __future__ import annotations

import argparse
import random
import time
from typing import Any, Sequence

from repro.analysis.batched import BatchedAnalyzer
from repro.analysis.incremental import IncrementalAnalyzer
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.benchmarks.runner_options import (
    add_config_arguments,
    add_driver_arguments,
    add_runner_arguments,
    checkpoint_from_args,
    clamped,
    config_from_args,
    platform_block,
    print_parallel,
    run_jobs,
    runner_from_args,
    write_document,
)
from repro.config import OptimizeConfig
from repro.errors import NoiseModelError
from repro.jobs import JobCheckpoint, JobRunner, JobSpec, derive_seed
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer
from repro.noisemodel.assignment import ensure_range_coverage
from repro.optimize import OptimizationProblem
from repro.optimize.strategies import GreedyBitStealingOptimizer, _sweep_uniform

__all__ = ["run_perf_benchmarks", "main"]

DEFAULT_OUTPUT = "BENCH_perf.json"
SUITE = "incremental-performance"

#: The driver's defaults, and the fields its flags expose.
DEFAULTS = OptimizeConfig(snr_floor_db=58.0, margin_db=1.0, horizon=6, bins=16)
FIELDS = ("snr_floor_db", "horizon", "bins")

#: Circuits whose inner-loop speedup is exit-gated.
GATE_CIRCUITS = ("fft_butterfly", "matmul2")

#: Circuits whose *batched* greedy inner-loop speedup is exit-gated —
#: the designs with enough simultaneous one-bit shaves per descent step
#: for one array pass to amortize (fft_butterfly averages ~4 moves per
#: sweep, too narrow to beat per-move incremental probes).
BATCHED_GATE_CIRCUITS = ("iir_biquad", "matmul2", "rms_normalize")

#: How many of the batched gate circuits must reach the floor (one slow
#: shared-runner outlier should not fail the build).
BATCHED_GATE_QUORUM = 2

#: Speedup metrics the gate can run on.
GATE_METRICS = ("wall", "cpu")

#: Relative tolerance of the equivalence gate: none.  The incremental and
#: batched engines run the from-scratch analyzer's float operations in
#: the same order, so every method is bit-identical.
EQUIV_RTOL = 0.0


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _perturbations(problem: OptimizationProblem, trials: int, seed: int) -> list:
    """Deterministic single- and multi-node word-length perturbations."""
    rng = random.Random(seed)
    base = problem.uniform(12)
    nodes = sorted(base.formats)
    candidates = []
    for trial in range(trials):
        assignment = base
        count = 1 if trial % 2 == 0 else rng.choice((2, 3))
        for node in rng.sample(nodes, min(count, len(nodes))):
            frac = assignment.format_of(node).fractional_bits
            assignment = assignment.with_fractional_bits(
                node, max(0, frac + rng.choice((-3, -2, -1, 1)))
            )
        candidates.append(ensure_range_coverage(assignment, problem.ranges))
    return candidates


def _check_equivalence(
    problem: OptimizationProblem, method: str, trials: int, seed: int
) -> tuple[bool, float, bool, float]:
    """Incremental and batched engines vs from-scratch reports.

    The same random perturbations are analyzed three ways: by the
    incremental engine (field-by-field comparison against the
    from-scratch analyzer) and by one :class:`BatchedAnalyzer` array pass
    (noise-power comparison; IA runs the compiled vector program, other
    methods route through incremental probes).  Both must match within
    ``EQUIV_RTOL``, i.e. exactly.  Returns ``(incremental_ok,
    incremental_worst, batched_ok, batched_worst)``.
    """
    circuit_graph = problem.graph
    baseline = problem.uniform(12)
    engine = IncrementalAnalyzer(
        circuit_graph,
        baseline,
        problem.input_ranges,
        horizon=problem.horizon,
        bins=problem.bins,
    )
    batched = BatchedAnalyzer(
        circuit_graph,
        baseline,
        problem.input_ranges,
        horizon=problem.horizon,
        bins=problem.bins,
        method=method,
        ranges=problem.ranges,
    )
    candidates = _perturbations(problem, trials, seed)
    batched_noise = batched.price(candidates, method=method, output=problem.output)
    worst = 0.0
    batched_worst = 0.0
    ok = True
    batched_ok = True
    for index, assignment in enumerate(candidates):
        got = engine.analyze(
            assignment, method, output=problem.output, commit=bool(index % 2)
        )
        want = DatapathNoiseAnalyzer(
            circuit_graph,
            assignment,
            problem.input_ranges,
            horizon=problem.horizon,
            bins=problem.bins,
        ).analyze(method, output=problem.output)
        for got_value, want_value in (
            (got.mean, want.mean),
            (got.variance, want.variance),
            (got.noise_power, want.noise_power),
            (got.bounds.lo, want.bounds.lo),
            (got.bounds.hi, want.bounds.hi),
        ):
            err = _rel_err(got_value, want_value)
            worst = max(worst, err)
            ok = ok and err <= EQUIV_RTOL
        ok = ok and got.source_count == want.source_count
        batched_err = _rel_err(float(batched_noise[index]), want.noise_power)
        batched_worst = max(batched_worst, batched_err)
        batched_ok = batched_ok and batched_err <= EQUIV_RTOL
    return ok, worst, batched_ok, batched_worst


def _greedy_inner_loop(circuit, config: OptimizeConfig, reps: int) -> dict:
    """Greedy-descent analysis time: incremental engine vs full replay.

    Wall and CPU times are captured side by side: the wall number is the
    user-facing speedup, the CPU number is what smoke gates use on
    shared runners (scheduling noise inflates wall clocks, never CPU
    time).
    """
    inc_times: list[float] = []
    inc_cpu_times: list[float] = []
    full_times: list[float] = []
    full_cpu_times: list[float] = []
    probes = 0
    method = config.method
    for _ in range(reps):
        problem = OptimizationProblem.from_circuit(circuit, config.snr_floor_db, config=config)
        trace: list = []
        feasible, word_length, _last = _sweep_uniform(problem, trace)
        if feasible is None or word_length is None:
            raise RuntimeError(f"{circuit.name}/{method}: no feasible uniform design")
        start = problem.evaluate_uniform(min(word_length + 2, problem.max_word_length))
        log: list = []
        problem.analysis_log = log
        before = problem.analysis_time_s
        before_cpu = problem.analysis_cpu_s
        GreedyBitStealingOptimizer()._descend(problem, start, trace, "bench")
        problem.analysis_log = None
        inc_times.append(problem.analysis_time_s - before)
        inc_cpu_times.append(problem.analysis_cpu_s - before_cpu)
        probes = len(log)
        started = time.perf_counter()
        started_cpu = time.process_time()
        for assignment in log:
            DatapathNoiseAnalyzer(
                problem.graph,
                assignment,
                problem.input_ranges,
                horizon=problem.horizon,
                bins=problem.bins,
            ).analyze(method, output=problem.output)
        full_times.append(time.perf_counter() - started)
        full_cpu_times.append(time.process_time() - started_cpu)
    inc = min(inc_times)
    full = min(full_times)
    inc_cpu = min(inc_cpu_times)
    full_cpu = min(full_cpu_times)
    return {
        "probes": probes,
        "incremental_s": inc,
        "full_s": full,
        "incremental_cpu_s": inc_cpu,
        "full_cpu_s": full_cpu,
        "inner_loop_speedup": full / inc if inc > 0 else float("inf"),
        "inner_loop_speedup_cpu": full_cpu / inc_cpu if inc_cpu > 0 else float("inf"),
    }


def _batched_inner_loop(circuit, config: OptimizeConfig, reps: int) -> dict:
    """Batched greedy frontier pricing vs the incremental probes it replaced.

    Runs the batched greedy descent once (deterministic) while logging
    every ``price_moves`` sweep, then replays the logged sweeps ``reps``
    times through the batched engine and as the equivalent per-move
    incremental probes, taking the min of each.  IA only: other methods
    have no compiled vector program, so their "batched" path *is* the
    incremental probe loop and the ratio is 1 by construction.
    """
    config = config.replace(engine="batched", method="ia")
    problem = OptimizationProblem.from_circuit(circuit, config.snr_floor_db, config=config)
    trace: list = []
    feasible, word_length, _last = _sweep_uniform(problem, trace)
    if feasible is None or word_length is None:
        raise RuntimeError(f"{circuit.name}/ia: no feasible uniform design")
    start = problem.evaluate_uniform(min(word_length + 2, problem.max_word_length))
    sweeps: list = []
    original_price_moves = problem.price_moves
    problem.price_moves = lambda assignment, moves: (  # type: ignore[method-assign]
        sweeps.append((assignment, list(moves))) or original_price_moves(assignment, moves)
    )
    GreedyBitStealingOptimizer()._descend(problem, start, trace, "bench")
    del problem.price_moves
    engine = problem.batched_engine()
    probe_engine = IncrementalAnalyzer(
        problem.graph,
        problem.uniform(12),
        problem.input_ranges,
        horizon=problem.horizon,
        bins=problem.bins,
    )
    batched_times: list[float] = []
    batched_cpu_times: list[float] = []
    probe_times: list[float] = []
    probe_cpu_times: list[float] = []
    probes = 0
    for _ in range(reps):
        started = time.perf_counter()
        started_cpu = time.process_time()
        for assignment, moves in sweeps:
            engine.price_moves(assignment, moves, method="ia", output=problem.output)
        batched_times.append(time.perf_counter() - started)
        batched_cpu_times.append(time.process_time() - started_cpu)
        probes = 0
        started = time.perf_counter()
        started_cpu = time.process_time()
        for assignment, moves in sweeps:
            for node, new_frac in moves:
                shaved = assignment.with_fractional_bits(node, new_frac)
                try:
                    shaved = ensure_range_coverage(shaved, problem.ranges)
                except NoiseModelError:
                    continue  # price_moves prices this lane inf; no probe to replay
                probe_engine.noise_power(shaved, "ia", output=problem.output, commit=False)
                probes += 1
        probe_times.append(time.perf_counter() - started)
        probe_cpu_times.append(time.process_time() - started_cpu)
    batched_s = min(batched_times)
    probe_s = min(probe_times)
    batched_cpu_s = min(batched_cpu_times)
    probe_cpu_s = min(probe_cpu_times)
    return {
        "sweeps": len(sweeps),
        "moves": sum(len(moves) for _, moves in sweeps),
        "probes": probes,
        "batched_s": batched_s,
        "incremental_s": probe_s,
        "batched_cpu_s": batched_cpu_s,
        "incremental_cpu_s": probe_cpu_s,
        "speedup": probe_s / batched_s if batched_s > 0 else float("inf"),
        "speedup_cpu": probe_cpu_s / batched_cpu_s if batched_cpu_s > 0 else float("inf"),
    }


def _greedy_end_to_end(circuit, config: OptimizeConfig) -> dict:
    """Wall time of the whole greedy optimization, both evaluator paths."""
    timings = {}
    for label, engine in (("incremental", "incremental"), ("full", "fresh")):
        problem = OptimizationProblem.from_circuit(
            circuit, config.snr_floor_db, config=config.replace(engine=engine)
        )
        started = time.perf_counter()
        result = GreedyBitStealingOptimizer().optimize(problem)
        timings[label] = time.perf_counter() - started
        timings[f"{label}_cost"] = result.cost
    assert timings["incremental_cost"] == timings["full_cost"], (
        f"{circuit.name}/{config.method}: evaluator paths disagree on the optimum"
    )
    return {
        "incremental_s": timings["incremental"],
        "full_s": timings["full"],
        "speedup": timings["full"] / timings["incremental"],
        "cost": timings["incremental_cost"],
    }


def _perf_job(
    circuit_name: str,
    config: OptimizeConfig,
    reps: int,
    equiv_trials: int,
    seed: int,
) -> dict:
    """Equivalence + speedup measurement of one (circuit, ``config.method``) pair.

    Module-level so process workers can pickle it; the perturbation RNG
    is seeded from the pair key by the caller, so verdicts and bounds
    are identical for any worker count.
    """
    circuit = get_circuit(circuit_name)
    method = config.method
    probe_problem = OptimizationProblem.from_circuit(
        circuit, config.snr_floor_db, config=config.replace(method="ia")
    )
    equivalent, max_err, batched_equivalent, batched_max_err = _check_equivalence(
        probe_problem, method, trials=equiv_trials, seed=seed
    )
    inner = _greedy_inner_loop(circuit, config, reps)
    batched = _batched_inner_loop(circuit, config, reps) if method == "ia" else None
    e2e = _greedy_end_to_end(circuit, config)
    # Bounds of the analysis at the uniform baseline, so compare_bench
    # can diff widths across revisions too.
    report = DatapathNoiseAnalyzer(
        probe_problem.graph,
        probe_problem.uniform(12),
        probe_problem.input_ranges,
        horizon=config.horizon,
        bins=config.bins,
    ).analyze(method, output=probe_problem.output)
    return {
        "result": {
            "lower": report.bounds.lo,
            "upper": report.bounds.hi,
            "noise_power": report.noise_power,
            "runtime_s": inner["incremental_s"],
            "full_runtime_s": inner["full_s"],
            "incremental_cpu_s": inner["incremental_cpu_s"],
            "full_cpu_s": inner["full_cpu_s"],
            "probes": inner["probes"],
            "inner_loop_speedup": inner["inner_loop_speedup"],
            "inner_loop_speedup_cpu": inner["inner_loop_speedup_cpu"],
            "equivalent": equivalent,
            "max_rel_err": max_err,
            "batched_equivalent": batched_equivalent,
            "batched_max_rel_err": batched_max_err,
            "seed": seed,
        },
        "batched_inner_loop": batched,
        "greedy_end_to_end": e2e,
    }


def config_block(
    config: OptimizeConfig,
    names: Sequence[str],
    methods: Sequence[str] = ANALYSIS_METHODS,
    reps: int = 7,
    equiv_trials: int = 12,
    min_speedup: float = 5.0,
    min_batched_speedup: float = 3.0,
    seed: int = 0,
    gate_metric: str = "wall",
) -> dict:
    """The document's ``config`` block; the checkpoint meta adds the circuits."""
    if gate_metric not in GATE_METRICS:
        raise ValueError(f"unknown gate_metric {gate_metric!r}; choose from {GATE_METRICS}")
    batched_gate = [name for name in BATCHED_GATE_CIRCUITS if name in names]
    return {
        "snr_floor_db": config.snr_floor_db,
        "horizon": config.horizon,
        "bins": config.bins,
        "reps": reps,
        "equiv_trials": equiv_trials,
        "equiv_rtol": EQUIV_RTOL,
        "min_speedup": min_speedup,
        "min_batched_speedup": min_batched_speedup,
        "gate_metric": gate_metric,
        "seed": seed,
        "methods": list(methods),
        "gate_circuits": [name for name in GATE_CIRCUITS if name in names],
        "batched_gate_circuits": batched_gate,
        "batched_gate_quorum": min(BATCHED_GATE_QUORUM, len(batched_gate)),
    }


def run_perf_benchmarks(
    config: OptimizeConfig = DEFAULTS,
    circuits: Sequence[str] | None = None,
    workers: int = 1,
    runner: JobRunner | None = None,
    checkpoint: JobCheckpoint | None = None,
    **settings: Any,
) -> dict:
    """Run the performance benchmark matrix and return the report document.

    ``config`` carries the search knobs of every measured problem (each
    pair replaces its ``method``); the ``settings`` are the sweep's own
    (see :func:`config_block`).
    """
    names = list(circuits) if circuits else list(CIRCUITS)
    block = config_block(config, names, **settings)
    methods, seed = block["methods"], block["seed"]
    gate_metric = block["gate_metric"]
    min_speedup, min_batched_speedup = block["min_speedup"], block["min_batched_speedup"]
    batched_gate = block["batched_gate_circuits"]
    document: dict = {
        "suite": SUITE,
        "config": block,
        "platform": platform_block(),
        "circuits": {},
    }
    pairs = [(name, method) for name in names for method in methods]
    specs = [
        JobSpec(
            key=f"perf/{name}/{method}",
            fn=_perf_job,
            args=(
                name,
                config.replace(method=method),
                block["reps"],
                block["equiv_trials"],
                derive_seed(seed, "perf", name, method),
            ),
            seed=derive_seed(seed, "perf", name, method),
        )
        for name, method in pairs
    ]
    job_results, execution = run_jobs(specs, runner or JobRunner(workers=workers), checkpoint)
    by_pair = {pair: result for pair, result in zip(pairs, job_results)}

    equivalence_ok = True
    batched_equivalence_ok = True
    speedup_ok = True
    batched_passes = 0
    for name in names:
        circuit = get_circuit(name)
        results: dict = {}
        enclosure: dict = {}
        greedy: dict = {}
        batched_inner = None
        best = {"wall": 0.0, "cpu": 0.0}
        best_method = {"wall": None, "cpu": None}
        circuit_wall = 0.0
        for method in methods:
            job = by_pair[(name, method)]
            row = job.value["result"]
            equivalence_ok = equivalence_ok and row["equivalent"]
            batched_equivalence_ok = batched_equivalence_ok and row["batched_equivalent"]
            results[method] = row
            enclosure[method] = row["equivalent"] and row["batched_equivalent"]
            greedy[method] = job.value["greedy_end_to_end"]
            if job.value.get("batched_inner_loop") is not None:
                batched_inner = job.value["batched_inner_loop"]
            circuit_wall += job.wall_s
            for metric, key in (("wall", "inner_loop_speedup"), ("cpu", "inner_loop_speedup_cpu")):
                if row[key] > best[metric]:
                    best[metric] = row[key]
                    best_method[metric] = method
        gated = name in GATE_CIRCUITS
        if gated:
            speedup_ok = speedup_ok and best[gate_metric] >= min_speedup
        batched_gated = name in batched_gate and batched_inner is not None
        if batched_gated:
            batched_metric = (
                batched_inner["speedup"] if gate_metric == "wall" else batched_inner["speedup_cpu"]
            )
            if batched_metric >= min_batched_speedup:
                batched_passes += 1
        document["circuits"][name] = {
            "description": circuit.description,
            "tags": list(circuit.tags),
            "results": results,
            "enclosure": enclosure,
            "greedy_end_to_end": greedy,
            "batched_inner_loop": batched_inner,
            "inner_loop_speedup": best["wall"],
            "inner_loop_method": best_method["wall"],
            "inner_loop_speedup_cpu": best["cpu"],
            "inner_loop_method_cpu": best_method["cpu"],
            "gated": gated,
            "batched_gated": batched_gated,
            "total_runtime_s": circuit_wall,
        }
    # A run without "ia" never measures the batched inner loop (no other
    # method compiles to the vector program), so it has nothing to gate.
    batched_speedup_ok = (
        batched_passes >= min(BATCHED_GATE_QUORUM, len(batched_gate))
        if "ia" in methods
        else True
    )
    document["equivalence_ok"] = equivalence_ok
    document["batched_equivalence_ok"] = batched_equivalence_ok
    document["speedup_ok"] = speedup_ok
    document["batched_speedup_ok"] = batched_speedup_ok
    document["batched_gate_passes"] = batched_passes
    document["passed"] = (
        equivalence_ok and batched_equivalence_ok and speedup_ok and batched_speedup_ok
    )
    document.update(execution)
    return document


def _print_document(document: dict) -> None:
    for name, entry in document["circuits"].items():
        print(f"\n== {name}: {entry['description']}")
        for method, row in entry["results"].items():
            verdict = "ok" if row["equivalent"] else "NOT EQUIVALENT"
            batched_verdict = "ok" if row["batched_equivalent"] else "NOT EQUIVALENT"
            print(
                f"  {method:6s} inner-loop {row['full_runtime_s'] * 1e3:8.2f}ms -> "
                f"{row['runtime_s'] * 1e3:7.2f}ms ({row['inner_loop_speedup']:6.2f}x wall, "
                f"{row['inner_loop_speedup_cpu']:6.2f}x cpu, "
                f"{row['probes']} probes)  e2e "
                f"{entry['greedy_end_to_end'][method]['speedup']:5.2f}x  "
                f"equiv {verdict} (max rel err {row['max_rel_err']:.1e})  "
                f"batched {batched_verdict} (max rel err {row['batched_max_rel_err']:.1e})"
            )
        tag = " [GATED]" if entry["gated"] else ""
        print(
            f"  -> best inner-loop speedup {entry['inner_loop_speedup']:.2f}x wall "
            f"({entry['inner_loop_method']}), {entry['inner_loop_speedup_cpu']:.2f}x cpu "
            f"({entry['inner_loop_method_cpu']}){tag}"
        )
        batched = entry.get("batched_inner_loop")
        if batched is not None:
            batched_tag = " [GATED]" if entry["batched_gated"] else ""
            print(
                f"  -> batched frontier pricing {batched['incremental_s'] * 1e3:8.2f}ms -> "
                f"{batched['batched_s'] * 1e3:7.2f}ms ({batched['speedup']:.2f}x wall, "
                f"{batched['speedup_cpu']:.2f}x cpu; {batched['sweeps']} sweeps, "
                f"{batched['moves']} moves){batched_tag}"
            )
    print_parallel(document)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_config_arguments(parser, DEFAULTS, FIELDS)
    add_driver_arguments(
        parser,
        DEFAULT_OUTPUT,
        workers="process-parallel shard count (1 = serial; verdicts are identical)",
        smoke="small, fast configuration for CI smoke runs; relaxes the "
        "speedup floor to 2x and gates it on CPU time (shared-runner wall "
        "clocks are too noisy for millisecond-scale loops) but keeps the "
        "equivalence gate strict",
    )
    parser.add_argument("--reps", type=int, default=7, help="timing repetitions (min taken)")
    parser.add_argument("--equiv-trials", type=int, default=12)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=3.0,
        help="floor of the batched frontier-pricing speedup gate",
    )
    parser.add_argument(
        "--gate-metric",
        choices=list(GATE_METRICS),
        default=None,
        help="speedup metric the gate uses (default: wall; --smoke defaults to cpu)",
    )
    parser.add_argument(
        "--method",
        action="append",
        choices=list(ANALYSIS_METHODS),
        help="restrict to specific analysis methods (repeatable)",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    if args.smoke:
        vars(args).update(
            clamped(args, reps=3, equiv_trials=6, min_speedup=2.0, min_batched_speedup=1.5)
        )
    names = args.circuit or list(CIRCUITS)
    config = config_from_args(args, DEFAULTS, FIELDS)
    settings = dict(
        methods=args.method or ANALYSIS_METHODS,
        reps=args.reps,
        equiv_trials=args.equiv_trials,
        min_speedup=args.min_speedup,
        min_batched_speedup=args.min_batched_speedup,
        seed=args.seed,
        gate_metric=args.gate_metric or ("cpu" if args.smoke else "wall"),
    )
    meta = {"suite": SUITE, "circuits": sorted(names), **config_block(config, names, **settings)}
    document = run_perf_benchmarks(
        config,
        circuits=names,
        workers=args.workers,
        runner=runner_from_args(args, workers=args.workers, seed=args.seed),
        checkpoint=checkpoint_from_args(args, meta),
        **settings,
    )
    _print_document(document)
    write_document(
        document,
        args.out,
        equivalence_ok=document["equivalence_ok"],
        batched_equivalence_ok=document["batched_equivalence_ok"],
        speedup_ok=document["speedup_ok"],
        batched_speedup_ok=document["batched_speedup_ok"],
    )
    return 0 if document["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
