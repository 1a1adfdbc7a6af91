"""Benchmark driver: one-call cost-vs-SNR Pareto sweeps across circuits.

Sweeps every benchmark circuit over a ladder of SNR floors with
:func:`~repro.optimize.pareto.pareto_front` (warm-started, shared-state,
batched-engine greedy by default), Monte-Carlo validates every feasible
point with the bit-true sharded simulator, and writes
``BENCH_pareto.json`` — the paper's cost-vs-quality trade-off curve as a
regression-gated artifact that ``compare_bench`` can diff across
revisions (a head point costing more than the base point at the same
floor is a dominated regression).

Each circuit is one job sharded through
:class:`~repro.jobs.runner.JobRunner` with a seed derived from its name,
so ``--workers 4`` merges to the same document as ``--workers 1`` (up to
recorded wall times and the ``parallel`` block).

The exit code is the CI gate.  It is non-zero unless:

* every circuit's curve is monotone (cost non-increasing as the floor
  relaxes — guaranteed by construction, so a violation is a bug in the
  warm-start plumbing, not noise), and
* every circuit meets at least its loosest floor, and
* every feasible point's design actually achieves its floor under
  Monte-Carlo simulation (the analytic ``--margin`` absorbs the
  model-vs-simulation gap exactly as in ``bench_optimize``).

Usage::

    PYTHONPATH=src python -m repro.benchmarks.bench_pareto              # full run
    PYTHONPATH=src python -m repro.benchmarks.bench_pareto --smoke      # CI-sized
    PYTHONPATH=src python -m repro.benchmarks.bench_pareto --workers 4  # sharded
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
from repro.optimize import OptimizationProblem

__all__ = ["run_pareto_benchmarks", "main"]

DEFAULT_OUTPUT = "BENCH_pareto.json"

SUITE = "pareto-front"

#: SNR floors of the default sweep (dB), loosest to tightest.
DEFAULT_FLOORS = (45.0, 50.0, 55.0, 60.0, 65.0)

#: The driver's defaults, and the fields its flags expose.
DEFAULTS = OptimizeConfig(method="ia", engine="batched", margin_db=1.0, horizon=6)
FIELDS = ("strategy", "method", "engine", "margin_db", "horizon", "max_word_length")


def _pareto_job(
    circuit_name: str,
    floors: tuple[float, ...],
    config: OptimizeConfig,
    mc_samples: int,
    seed: int,
) -> dict:
    """Sweep-and-validate one circuit (module-level: picklable).

    The Monte-Carlo validator is seeded from ``seed`` (derived from the
    circuit name by the caller) and runs the sharded
    worker-count-independent simulator, so the row does not depend on
    which worker ran it.
    """
    circuit = get_circuit(circuit_name)
    problem = OptimizationProblem.from_circuit(circuit, max(floors), config=config)
    options = strategy_options(config.strategy, seed)
    started = time.perf_counter()
    front = problem.pareto(floors, strategy=config.strategy, **options)
    row = front.to_dict()
    all_validated = True
    for point, result, doc in zip(front.points, front.results, row["points"]):
        if not point.feasible or result.assignment is None:
            doc["mc_snr_db"] = None
            doc["mc_validated"] = None
            continue
        mc_snr = problem.monte_carlo_snr(result.assignment, samples=mc_samples, seed=seed)
        doc["mc_snr_db"] = mc_snr
        doc["mc_validated"] = bool(mc_snr >= point.snr_floor_db)
        all_validated = all_validated and doc["mc_validated"]
    row["description"] = circuit.description
    row["tags"] = list(circuit.tags)
    row["seed"] = seed
    row["feasible_floors"] = len(front.feasible_points)
    row["analyzer_calls"] = problem.analyzer_calls
    row["fallback_probes"] = problem.fallback_probes
    row["all_validated"] = all_validated
    row["total_runtime_s"] = time.perf_counter() - started
    return row


def config_block(
    config: OptimizeConfig,
    floors: Sequence[float] = DEFAULT_FLOORS,
    mc_samples: int = 20_000,
    seed: int = 0,
) -> dict:
    """The document's ``config`` block; the checkpoint meta adds the circuits."""
    return {
        "floors": sorted({float(f) for f in floors}),
        "strategy": config.strategy,
        "method": config.method,
        "engine": config.engine,
        "margin_db": config.margin_db,
        "horizon": config.horizon,
        "max_word_length": config.max_word_length,
        "mc_samples": mc_samples,
        "seed": seed,
    }


def run_pareto_benchmarks(
    config: OptimizeConfig = DEFAULTS,
    circuits: Sequence[str] | None = None,
    workers: int = 1,
    runner: JobRunner | None = None,
    checkpoint: JobCheckpoint | None = None,
    **settings: Any,
) -> dict:
    """Run the Pareto benchmark matrix and return the report document.

    ``config`` carries the search knobs (its SNR floor is replaced by the
    tightest swept floor); the ``settings`` are the sweep's own (see
    :func:`config_block`).
    """
    names = list(circuits) if circuits else list(CIRCUITS)
    block = config_block(config, **settings)
    floor_tuple = tuple(block["floors"])
    job_config = config.replace(snr_floor_db=max(floor_tuple), mc_workers=1)
    document: dict = {
        "suite": SUITE,
        "config": block,
        "platform": platform_block(),
        "circuits": {},
    }
    specs = [
        JobSpec(
            key=f"pareto/{name}",
            fn=_pareto_job,
            args=(
                name,
                floor_tuple,
                job_config,
                block["mc_samples"],
                derive_seed(block["seed"], "pareto", name),
            ),
            seed=derive_seed(block["seed"], "pareto", name),
        )
        for name in names
    ]
    results, execution = run_jobs(specs, runner or JobRunner(workers=workers), checkpoint)
    all_monotone = True
    all_feasible = True
    all_validated = True
    for name, result in zip(names, results):
        row = document["circuits"][name] = job_row(result)
        all_monotone = all_monotone and row["monotone"]
        all_feasible = all_feasible and row["feasible_floors"] > 0
        all_validated = all_validated and row["all_validated"]
    document["all_monotone"] = all_monotone
    document["all_feasible"] = all_feasible
    document["all_validated"] = all_validated
    document["passed"] = all_monotone and all_feasible and all_validated
    document.update(execution)
    return document


def _print_document(document: dict) -> None:
    for name, row in document["circuits"].items():
        verdict = "monotone" if row["monotone"] else "NOT MONOTONE"
        print(f"\n== {name}: {row['description']}  [{verdict}]")
        for point in row["points"]:
            if point["feasible"]:
                mc = point["mc_snr_db"]
                mc_txt = f" mc={mc:5.1f}dB {'ok' if point['mc_validated'] else 'BELOW FLOOR'}"
                print(
                    f"  floor {point['snr_floor_db']:5.1f}dB  cost {point['cost']:8.1f}  "
                    f"snr {point['snr_db']:5.1f}dB  bits {point['total_bits']:4d}{mc_txt}"
                )
            else:
                print(f"  floor {point['snr_floor_db']:5.1f}dB  infeasible")
        print(
            f"  {row['analyzer_calls']} analyzer calls, {row['fallback_probes']} move probes, "
            f"{row['total_runtime_s'] * 1e3:.1f}ms"
        )
    print_parallel(document)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_config_arguments(parser, DEFAULTS, FIELDS)
    add_driver_arguments(
        parser,
        DEFAULT_OUTPUT,
        smoke="small, fast configuration for CI smoke runs (two floors, "
        "fewer Monte-Carlo samples)",
    )
    parser.add_argument(
        "--floor",
        action="append",
        type=float,
        dest="floors",
        help=f"SNR floor in dB (repeatable; default {list(DEFAULT_FLOORS)})",
    )
    parser.add_argument("--samples", type=int, default=20_000)
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    config = config_from_args(args, DEFAULTS, FIELDS)
    floors = args.floors or list(DEFAULT_FLOORS)
    if args.smoke:
        config = config.replace(**clamped(config, horizon=4))
        vars(args).update(clamped(args, samples=2_000))
        floors = args.floors or [50.0, 60.0]
    names = args.circuit or list(CIRCUITS)
    settings = dict(
        floors=floors,
        mc_samples=args.samples,
        seed=args.seed,
    )
    meta = {"suite": SUITE, "circuits": sorted(names), **config_block(config, **settings)}
    document = run_pareto_benchmarks(
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
        all_monotone=document["all_monotone"],
        all_feasible=document["all_feasible"],
        all_validated=document["all_validated"],
    )
    return 0 if document["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
