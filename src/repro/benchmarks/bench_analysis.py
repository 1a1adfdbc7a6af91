"""Benchmark driver: all circuits x all analysis methods, timed.

Runs the :class:`~repro.analysis.pipeline.NoiseAnalysisPipeline` over the
whole circuit library, cross-checks every analytic bound against the
vectorized Monte-Carlo validator, and writes ``BENCH_analysis.json`` —
the per-circuit timing and accuracy baseline that future performance work
is measured against.

The matrix is sharded per circuit through
:class:`~repro.jobs.runner.JobRunner`: every circuit is one job with a
seed derived from its name, so ``--workers 4`` merges to the same
document as ``--workers 1`` (up to the recorded wall times and the
``parallel`` execution block).

Usage::

    PYTHONPATH=src python -m repro.benchmarks.bench_analysis              # full run
    PYTHONPATH=src python -m repro.benchmarks.bench_analysis --smoke      # CI-sized
    PYTHONPATH=src python -m repro.benchmarks.bench_analysis --workers 4  # sharded
"""

from __future__ import annotations

import argparse
import time
from typing import Sequence

from repro.analysis.pipeline import ALL_METHODS, NoiseAnalysisPipeline
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
    write_document,
)
from repro.config import AnalysisConfig
from repro.jobs import JobCheckpoint, JobRunner, JobSpec, derive_seed
from repro.noisemodel.analyzer import BOUND_METHODS

__all__ = ["run_benchmarks", "main"]

DEFAULT_OUTPUT = "BENCH_analysis.json"
SUITE = "noise-analysis-pipeline"

#: The driver's defaults, and the fields its flags expose.
DEFAULTS = AnalysisConfig(mc_samples=50_000)
FIELDS = ("word_length", "horizon", "bins", "mc_samples")


def _analysis_job(name: str, config: AnalysisConfig) -> dict:
    """Analyze one circuit (module-level: picklable for process workers)."""
    pipeline = NoiseAnalysisPipeline(config)
    circuit = get_circuit(name)
    started = time.perf_counter()
    report = pipeline.analyze(circuit, output=circuit.output, method=config.methods)
    total = time.perf_counter() - started
    entry = report.to_dict()
    entry["description"] = circuit.description
    entry["tags"] = list(circuit.tags)
    entry["seed"] = config.seed
    entry["total_runtime_s"] = total
    return entry


def config_block(config: AnalysisConfig) -> dict:
    """The document's ``config`` block; the checkpoint meta adds the circuits."""
    return {
        "word_length": config.word_length,
        "horizon": config.horizon,
        "bins": config.bins,
        "mc_samples": config.mc_samples,
        "seed": config.seed,
        "methods": list(config.methods or ALL_METHODS),
        "oracle_samples": config.oracle_samples,
        "oracle_precision_bits": config.oracle_precision_bits,
    }


def run_benchmarks(
    config: AnalysisConfig = DEFAULTS,
    circuits: Sequence[str] | None = None,
    workers: int = 1,
    runner: JobRunner | None = None,
    checkpoint: JobCheckpoint | None = None,
) -> dict:
    """Run the full benchmark matrix and return the report document.

    ``workers`` shards the per-circuit jobs over a process pool; each
    job's Monte-Carlo seed is :func:`~repro.jobs.spec.derive_seed` of
    ``config.seed`` and the circuit name, so the merged document is
    independent of worker count and scheduling order.
    """
    names = list(circuits) if circuits else list(CIRCUITS)
    document: dict = {
        "suite": SUITE,
        "config": config_block(config),
        "platform": platform_block(),
        "circuits": {},
    }
    specs = [
        JobSpec(
            key=f"analysis/{name}",
            fn=_analysis_job,
            args=(name, config.replace(seed=derive_seed(config.seed, "analysis", name))),
            seed=derive_seed(config.seed, "analysis", name),
        )
        for name in names
    ]
    results, execution = run_jobs(specs, runner or JobRunner(workers=workers), checkpoint)
    for name, result in zip(names, results):
        document["circuits"][name] = job_row(result)
    verdicts = [
        entry["enclosure"][method]
        for entry in document["circuits"].values()
        for method in BOUND_METHODS
        if method in entry["enclosure"]
    ]
    document["enclosure_checks"] = len(verdicts)
    # None (not a vacuous True) when no Monte-Carlo validation ran at
    # all — e.g. a method-restricted run without "montecarlo".
    document["all_enclosed"] = all(verdicts) if verdicts else None
    document.update(execution)
    return document


def _print_document(document: dict) -> None:
    for name, entry in document["circuits"].items():
        print(f"\n== {name}: {entry['description']}")
        for method, row in entry["results"].items():
            verdict = entry["enclosure"].get(method)
            tag = "" if verdict is None else ("  ok" if verdict else "  VIOLATION")
            print(
                f"  {method:10s} [{row['lower']:+.6e}, {row['upper']:+.6e}] "
                f"power={row['noise_power']:.3e} t={row['runtime_s'] * 1e3:8.2f}ms{tag}"
            )
        print(f"  total {entry['total_runtime_s'] * 1e3:.1f}ms")
    print_parallel(document)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_config_arguments(parser, DEFAULTS, FIELDS)
    add_driver_arguments(parser, DEFAULT_OUTPUT)
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    config = config_from_args(args, DEFAULTS, FIELDS, seed=args.seed)
    if args.smoke:
        config = config.replace(**clamped(config, mc_samples=2_000, bins=16, horizon=4))
    names = args.circuit or list(CIRCUITS)
    document = run_benchmarks(
        config,
        circuits=names,
        workers=args.workers,
        runner=runner_from_args(args, workers=args.workers, seed=args.seed),
        checkpoint=checkpoint_from_args(
            args, {"suite": SUITE, "circuits": sorted(names), **config_block(config)}
        ),
    )
    _print_document(document)
    write_document(document, args.out, all_enclosed=document["all_enclosed"])
    # None means "no enclosure checks ran" (not a violation): still 0.
    return 1 if document["all_enclosed"] is False else 0


if __name__ == "__main__":
    raise SystemExit(main())
