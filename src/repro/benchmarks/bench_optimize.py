"""Benchmark driver: word-length optimization across circuits and methods.

Runs every benchmark circuit x analysis method (``ia`` / ``aa`` / ``sna``)
x optimization strategy (uniform sweep, greedy bit-stealing, simulated
annealing) against one SNR floor, then validates every returned design
with the bit-true Monte-Carlo simulator, and writes
``BENCH_optimize.json`` — the paper's headline uniform-vs-optimized
experiment as a regression-gated artifact.

Each (circuit x method x strategy) cell is one independent job sharded
through :class:`~repro.jobs.runner.JobRunner` with a seed derived from
the cell key: ``--workers 4`` merges to the same document as
``--workers 1`` (up to recorded wall times and the ``parallel`` block),
because every job builds its own problem, every RNG is seeded from the
job key, and Monte-Carlo validation runs the sharded
worker-count-independent validator.

The exit code is the CI gate.  It is non-zero unless:

* every strategy found a feasible design for every circuit x method, and
* every returned design actually meets the SNR floor under Monte-Carlo
  simulation, and
* for every circuit x method the best *optimized* design (greedy or
  annealing) is strictly cheaper than the cheapest feasible uniform one,
  and
* the probabilistic comparison passes: sizing against the pna
  confidence-quantile (99.9% by default) is Monte-Carlo feasible on
  every circuit, never more expensive than sizing against the AA
  worst-case enclosure, strictly cheaper on at least three circuits,
  and the arbitrary-precision oracle agrees with the float64 validator
  on every circuit.

The analytic methods are probabilistic *models*, not sound bounds on the
measured SNR, so a design sized right at the analytic floor can land a
fraction of a dB short under simulation.  When that happens the job
escalates: it re-runs the offending strategy with a larger analytic
margin (``margin + 1, + 2, + 4`` dB) until the Monte-Carlo check passes,
and records how many attempts were needed.

Usage::

    PYTHONPATH=src python -m repro.benchmarks.bench_optimize              # full run
    PYTHONPATH=src python -m repro.benchmarks.bench_optimize --smoke      # CI-sized
    PYTHONPATH=src python -m repro.benchmarks.bench_optimize --workers 4  # sharded
"""

from __future__ import annotations

import argparse
import time
from typing import Any, Sequence

from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.benchmarks.runner_options import (
    add_config_arguments,
    add_driver_arguments,
    add_runner_arguments,
    checkpoint_from_args,
    clamped,
    config_from_args,
    job_row,
    platform_block,
    print_parallel,
    run_jobs,
    runner_from_args,
    strategy_options,
    write_document,
)
from repro.config import OptimizeConfig
from repro.jobs import JobCheckpoint, JobRunner, JobSpec, derive_seed
from repro.optimize import COST_TABLES, OptimizationProblem, get_optimizer

__all__ = ["run_optimize_benchmarks", "main", "METHODS", "STRATEGIES"]

DEFAULT_OUTPUT = "BENCH_optimize.json"

#: Analysis methods the optimization benchmark sweeps (taylor is covered
#: by bench_analysis; here it adds runtime without a distinct story).
METHODS = ("ia", "aa", "sna")

#: Strategies in presentation order; ``uniform`` is the baseline.
STRATEGIES = ("uniform", "greedy", "anneal")

#: Margin escalation ladder of the per-cell Monte-Carlo validation loop.
ESCALATION_DB = (0.0, 1.0, 2.0, 4.0)

SUITE = "word-length-optimization"

#: The driver's defaults (``confidence`` is the level of the
#: probabilistic-vs-worst-case comparison), and the fields its flags expose.
DEFAULTS = OptimizeConfig(margin_db=1.0, horizon=6, bins=16, confidence=0.999)
FIELDS = (
    "snr_floor_db",
    "margin_db",
    "horizon",
    "bins",
    "max_word_length",
    "cost_table",
    "confidence",
)


def _optimize_job(
    circuit_name: str,
    config: OptimizeConfig,
    mc_samples: int,
    anneal_iterations: int,
    seed: int,
) -> dict:
    """Optimize-and-validate one (circuit, method, strategy) cell.

    Module-level so process workers can pickle it.  All randomness —
    the annealer's proposal stream and the Monte-Carlo validator — is
    seeded from ``seed`` (derived from the cell key by the caller), and
    the validator runs sharded (``config.mc_workers=1``: fixed chunk
    seeds on the serial backend), so the cell's numbers do not depend on
    which worker ran it or on how many workers exist.

    ``config.confidence`` selects the noise measure the SNR constraint
    judges; the Monte-Carlo check automatically validates against the
    matching empirical statistic.
    """
    circuit = get_circuit(circuit_name)
    snr_floor_db = config.snr_floor_db

    def make_problem(margin: float) -> OptimizationProblem:
        return OptimizationProblem.from_circuit(
            circuit, snr_floor_db, config=config.replace(margin_db=margin)
        )

    problem = make_problem(config.margin_db)
    optimizer = get_optimizer(
        config.strategy, **strategy_options(config.strategy, seed, anneal_iterations)
    )
    started = time.perf_counter()
    row: dict = {}
    for attempt, extra in enumerate(ESCALATION_DB):
        attempt_problem = problem if extra == 0.0 else make_problem(config.margin_db + extra)
        result = optimizer.optimize(attempt_problem)
        row = result.to_dict(include_trace=False)
        row["attempts"] = attempt + 1
        if result.feasible and result.assignment is not None:
            mc_snr = problem.monte_carlo_snr(result.assignment, samples=mc_samples, seed=seed)
            row["mc_snr_db"] = mc_snr
            row["mc_validated"] = bool(mc_snr >= snr_floor_db)
            if row["mc_validated"]:
                break
        else:
            # Infeasible only gets harder with a larger margin.
            row["mc_snr_db"] = None
            row["mc_validated"] = False
            break
    row["seed"] = seed
    row["total_runtime_s"] = time.perf_counter() - started
    return row


def _oracle_job(
    circuit_name: str,
    word_length: int,
    steps: int,
    samples: int,
    precision_bits: int,
    seed: int,
) -> dict:
    """Oracle-vs-float64 agreement of one circuit's uniform baseline.

    Module-level so process workers can pickle it.  Both simulators run
    on identical stimulus (same seed), so the reported disagreement is
    purely the float64 validator's own rounding.
    """
    from repro.analysis.oracle import oracle_agreement
    from repro.dfg.range_analysis import infer_ranges
    from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage

    circuit = get_circuit(circuit_name)
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    assignment = ensure_range_coverage(
        WordLengthAssignment.uniform(circuit.graph, word_length, ranges), ranges
    )
    return oracle_agreement(
        circuit.graph,
        assignment,
        circuit.input_ranges,
        samples=samples,
        steps=steps if circuit.sequential else 1,
        output=circuit.output,
        seed=seed,
        precision_bits=precision_bits,
    )


def config_block(
    config: OptimizeConfig,
    methods: Sequence[str] = METHODS,
    strategies: Sequence[str] = STRATEGIES,
    mc_samples: int = 20_000,
    seed: int = 0,
    anneal_iterations: int = 120,
    oracle_samples: int = 128,
    oracle_precision_bits: int = 128,
) -> dict:
    """The document's ``config`` block; the checkpoint meta adds the circuits."""
    return {
        "snr_floor_db": config.snr_floor_db,
        "margin_db": config.margin_db,
        "horizon": config.horizon,
        "bins": config.bins,
        "max_word_length": config.max_word_length,
        "mc_samples": mc_samples,
        "seed": seed,
        "anneal_iterations": anneal_iterations,
        "cost_table": COST_TABLES[config.cost_table].to_dict(),
        "methods": list(methods),
        "strategies": list(strategies),
        "confidence": config.confidence,
        "oracle_samples": oracle_samples,
        "oracle_precision_bits": oracle_precision_bits,
    }


def run_optimize_benchmarks(
    config: OptimizeConfig = DEFAULTS,
    circuits: Sequence[str] | None = None,
    workers: int = 1,
    runner: JobRunner | None = None,
    checkpoint: JobCheckpoint | None = None,
    **settings: Any,
) -> dict:
    """Run the optimization benchmark matrix and return the report document.

    ``config`` carries the search knobs shared by every cell (its
    ``confidence`` is the probabilistic comparison's level); the
    ``settings`` are the sweep's own (see :func:`config_block`).
    ``runner`` overrides the default :class:`JobRunner` (to add timeouts,
    retries or fault injection); ``checkpoint`` streams completed cells
    to disk and, when opened with ``resume=True``, skips the cells it
    already holds.  Neither changes the deterministic content of the
    document — retry/fault/resume counters land in volatile keys that
    :func:`~repro.jobs.canonical.canonical_document` strips.
    """
    names = list(circuits) if circuits else list(CIRCUITS)
    block = config_block(config, **settings)
    methods, strategies, seed = block["methods"], block["strategies"], block["seed"]
    job_args = (block["mc_samples"], block["anneal_iterations"])
    cell_config = config.replace(confidence=None, mc_workers=1)
    document: dict = {
        "suite": SUITE,
        "config": block,
        "platform": platform_block(),
        "circuits": {},
    }
    cells = [
        (name, method, strategy)
        for name in names
        for method in methods
        for strategy in strategies
    ]
    specs = [
        JobSpec(
            key=f"optimize/{name}/{method}/{strategy}",
            fn=_optimize_job,
            args=(
                name,
                cell_config.replace(method=method, strategy=strategy),
                *job_args,
                derive_seed(seed, "optimize", name, method, strategy),
            ),
            seed=derive_seed(seed, "optimize", name, method, strategy),
        )
        for name, method, strategy in cells
    ]
    # The probabilistic comparison: for every circuit, size the design
    # against the worst-case reading (AA enclosure, confidence=1.0) and
    # against the probabilistic one (pna at the requested confidence),
    # both greedy, both Monte-Carlo validated with the matching
    # statistic.  A third job per circuit referees the float64 validator
    # against the arbitrary-precision oracle.
    greedy = cell_config.replace(strategy="greedy")
    prob_modes = {
        "worstcase": greedy.replace(method="aa", confidence=1.0),
        "probabilistic": greedy.replace(method="pna", confidence=config.confidence),
    }
    prob_cells = [(name, mode) for name in names for mode in prob_modes]
    prob_specs = [
        JobSpec(
            key=f"probabilistic/{name}/{mode}",
            fn=_optimize_job,
            args=(
                name,
                prob_modes[mode],
                *job_args,
                derive_seed(seed, "probabilistic", name, mode),
            ),
            seed=derive_seed(seed, "probabilistic", name, mode),
        )
        for name, mode in prob_cells
    ]
    oracle_specs = [
        JobSpec(
            key=f"probabilistic/{name}/oracle",
            fn=_oracle_job,
            args=(
                name,
                12,
                config.horizon,
                block["oracle_samples"],
                block["oracle_precision_bits"],
                derive_seed(seed, "probabilistic", name, "oracle"),
            ),
            seed=derive_seed(seed, "probabilistic", name, "oracle"),
        )
        for name in names
    ]
    all_results, execution = run_jobs(
        specs + prob_specs + oracle_specs, runner or JobRunner(workers=workers), checkpoint
    )
    results = all_results[: len(specs)]
    prob_results = all_results[len(specs) : len(specs) + len(prob_specs)]
    oracle_results = all_results[len(specs) + len(prob_specs) :]
    # "job_attempts" counts retries; a row's own "attempts" is the
    # deterministic margin-escalation count and stays untouched.
    rows_by_cell = {cell: job_row(result) for cell, result in zip(cells, results)}

    all_validated = True
    all_improved = True
    for name in names:
        circuit = get_circuit(name)
        circuit_entry: dict = {
            "description": circuit.description,
            "tags": list(circuit.tags),
            "methods": {},
        }
        for method in methods:
            rows: dict = {}
            uniform_cost: float | None = None
            best_optimized: float | None = None
            for strategy in strategies:
                row = rows_by_cell[(name, method, strategy)]
                all_validated = all_validated and row["mc_validated"]
                rows[strategy] = row
                if not (row["feasible"] and row["mc_validated"]):
                    continue
                if strategy == "uniform":
                    uniform_cost = row["cost"]
                elif best_optimized is None or row["cost"] < best_optimized:
                    best_optimized = row["cost"]
            improved = (
                uniform_cost is not None
                and best_optimized is not None
                and best_optimized < uniform_cost
            )
            all_improved = all_improved and improved
            circuit_entry["methods"][method] = {
                "strategies": rows,
                "uniform_cost": uniform_cost,
                "best_optimized_cost": best_optimized,
                "improved": improved,
            }
        document["circuits"][name] = circuit_entry

    prob_rows = {cell: job_row(result) for cell, result in zip(prob_cells, prob_results)}
    oracle_rows = {name: job_row(result) for name, result in zip(names, oracle_results)}
    # "strictly cheaper on >= 3 circuits" is a claim about the full suite;
    # a subset run (e.g. --circuit quadratic) can only be held to the
    # per-circuit ordering and validation gates, not the count.
    cheaper_target = 3 if len(names) >= 3 else 0
    cheaper = 0
    all_prob_validated = True
    never_more_expensive = True
    oracle_all_agreed = True
    prob_circuits: dict = {}
    for name in names:
        worst = prob_rows[(name, "worstcase")]
        prob = prob_rows[(name, "probabilistic")]
        agreement = oracle_rows[name]
        worst_ok = worst["feasible"] and worst["mc_validated"]
        prob_ok = prob["feasible"] and prob["mc_validated"]
        all_prob_validated = all_prob_validated and prob_ok
        oracle_all_agreed = oracle_all_agreed and agreement["agreed"]
        saving = None
        if worst_ok and prob_ok:
            saving = (worst["cost"] - prob["cost"]) / worst["cost"] if worst["cost"] else 0.0
            if prob["cost"] > worst["cost"]:
                never_more_expensive = False
            elif prob["cost"] < worst["cost"]:
                cheaper += 1
        else:
            # an unusable pair can't demonstrate the claimed ordering
            never_more_expensive = False
        prob_circuits[name] = {
            "worstcase": worst,
            "probabilistic": prob,
            "oracle": agreement,
            "saving": saving,
        }
    prob_passed = (
        all_prob_validated
        and never_more_expensive
        and cheaper >= cheaper_target
        and oracle_all_agreed
    )
    document["probabilistic"] = {
        "snr_floor_db": config.snr_floor_db,
        "confidence": config.confidence,
        "circuits": prob_circuits,
        "cheaper_circuits": cheaper,
        "cheaper_target": cheaper_target,
        "all_probabilistic_validated": all_prob_validated,
        "never_more_expensive": never_more_expensive,
        "oracle_all_agreed": oracle_all_agreed,
        "passed": prob_passed,
    }

    document["all_validated"] = all_validated
    document["all_improved"] = all_improved
    document["passed"] = all_validated and all_improved and prob_passed
    document.update(execution)
    return document


def _print_document(document: dict) -> None:
    for name, entry in document["circuits"].items():
        print(f"\n== {name}: {entry['description']}")
        for method, method_entry in entry["methods"].items():
            for strategy, row in method_entry["strategies"].items():
                saving = row.get("improvement")
                saving_txt = f" {saving * 100.0:+6.1f}%" if saving is not None else "        "
                mc = row.get("mc_snr_db")
                mc_txt = f" mc={mc:5.1f}dB" if mc is not None else " mc=  n/a "
                verdict = "ok" if row["mc_validated"] else "FAIL"
                print(
                    f"  {method:4s} {strategy:8s} cost={row['cost']:9.1f}{saving_txt} "
                    f"snr={row['snr_db']:5.1f}dB{mc_txt} "
                    f"calls={row['analyzer_calls']:4d} t={row['total_runtime_s'] * 1e3:8.1f}ms "
                    f"{verdict}"
                )
            tag = "improved" if method_entry["improved"] else "NOT IMPROVED"
            print(f"       -> {method}: {tag}")
    prob = document["probabilistic"]
    print(
        f"\n== probabilistic vs worst-case (floor {prob['snr_floor_db']:.0f}dB, "
        f"confidence {prob['confidence']})"
    )
    for name, entry in prob["circuits"].items():
        worst, p = entry["worstcase"], entry["probabilistic"]
        saving = entry["saving"]
        saving_txt = f"{saving * 100.0:+6.1f}%" if saving is not None else "   n/a"
        agree = entry["oracle"]
        print(
            f"  {name:18s} worst={worst['cost']:9.1f} prob={p['cost']:9.1f} {saving_txt} "
            f"mc={p['mc_snr_db'] if p['mc_snr_db'] is not None else float('nan'):5.1f}dB "
            f"oracle_gap={agree['max_abs_disagreement']:.1e} "
            f"{'ok' if p['mc_validated'] and agree['agreed'] else 'FAIL'}"
        )
    print(
        f"  -> {prob['cheaper_circuits']}/{len(prob['circuits'])} strictly cheaper "
        f"(target {prob['cheaper_target']}), "
        f"never more expensive: {prob['never_more_expensive']}, "
        f"oracle agreed: {prob['oracle_all_agreed']}"
    )
    print_parallel(document)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_config_arguments(
        parser,
        DEFAULTS,
        FIELDS,
        cost_table={"choices": list(COST_TABLES)},
        confidence={"help": "confidence level of the probabilistic-vs-worst-case comparison"},
    )
    add_driver_arguments(parser, DEFAULT_OUTPUT)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--anneal-iterations", type=int, default=120)
    parser.add_argument(
        "--oracle-samples",
        type=int,
        default=128,
        help="sample budget of the per-circuit oracle agreement check",
    )
    parser.add_argument(
        "--method",
        action="append",
        choices=list(METHODS),
        help="restrict to specific analysis methods (repeatable)",
    )
    parser.add_argument(
        "--strategy",
        action="append",
        choices=list(STRATEGIES),
        help="restrict to specific strategies (repeatable; uniform is always implied)",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    config = config_from_args(args, DEFAULTS, FIELDS)
    if args.smoke:
        config = config.replace(**clamped(config, bins=8, horizon=4))
        vars(args).update(
            clamped(args, samples=2_000, anneal_iterations=50, oracle_samples=64)
        )
    strategies = list(STRATEGIES)
    if args.strategy:
        strategies = ["uniform"] + [s for s in STRATEGIES if s != "uniform" and s in args.strategy]
    names = args.circuit or list(CIRCUITS)
    settings = dict(
        methods=args.method or METHODS,
        strategies=strategies,
        mc_samples=args.samples,
        seed=args.seed,
        anneal_iterations=args.anneal_iterations,
        oracle_samples=args.oracle_samples,
    )
    meta = {"suite": SUITE, "circuits": sorted(names), **config_block(config, **settings)}
    document = run_optimize_benchmarks(
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
        all_validated=document["all_validated"],
        all_improved=document["all_improved"],
        probabilistic_passed=document["probabilistic"]["passed"],
    )
    return 0 if document["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
