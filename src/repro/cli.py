"""The unified ``repro`` command-line interface.

Dispatches the library's workloads without writing driver scripts::

    python -m repro analyze quadratic fir4 --workers 2
    python -m repro optimize fir4 --snr-floor 60 --strategy greedy
    python -m repro pareto fir4 --floor 45 --floor 55 --floor 65
    python -m repro bench optimize -- --smoke --workers 4

Subcommands
-----------
``analyze``
    Run the noise-analysis pipeline (all methods + Monte-Carlo
    validation) over named benchmark circuits — or the whole library —
    sharded over ``--workers`` processes; prints the per-method bound
    table and optionally writes the ``BENCH_analysis``-shaped JSON.
``optimize``
    Word-length optimization of one circuit under an SNR floor, with
    sharded Monte-Carlo validation of the returned design.
``pareto``
    Sweep one circuit over a list of SNR floors in a single call: the
    floors are solved tightest-first with warm-started, shared state
    (see :func:`repro.optimize.pareto.pareto_front`), so the printed
    cost-vs-SNR curve is monotone by construction.
``bench``
    Dispatch to the full benchmark drivers (``analysis`` / ``optimize``
    / ``pareto`` / ``scale`` / ``compare``), forwarding every remaining
    argument, so CI and humans spell benchmark invocations exactly one
    way.

Analysis and optimization knobs are carried by the frozen
:class:`~repro.config.AnalysisConfig` / :class:`~repro.config.OptimizeConfig`
objects.  Each subcommand declares its defaults once, as one config
value; its flags are generated from that value and parsed back into a
config that is handed down — the calling convention library users follow.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Sequence

from repro import __version__
from repro.benchmarks.bench_pareto import DEFAULT_FLOORS
from repro.benchmarks.runner_options import (
    add_config_arguments,
    add_driver_arguments,
    config_from_args,
    strategy_options,
    write_document,
)
from repro.config import AnalysisConfig, OptimizeConfig
from repro.errors import CheckpointError, DesignError, ReproError

__all__ = ["main"]

#: Benchmark drivers reachable through ``repro bench <suite>``.
BENCH_SUITES = ("analysis", "optimize", "pareto", "scale", "compare")

#: ``repro analyze`` defaults.
ANALYZE_DEFAULTS = AnalysisConfig()
ANALYZE_FIELDS = (
    "word_length",
    "horizon",
    "mc_samples",
    "methods",
    "oracle_samples",
    "oracle_precision_bits",
)

#: ``repro optimize`` defaults (``repro pareto`` sweeps on the batched engine).
OPTIMIZE_DEFAULTS = OptimizeConfig(margin_db=1.0, horizon=6)
PARETO_DEFAULTS = OPTIMIZE_DEFAULTS.replace(engine="batched")
_SEARCH_FIELDS = (
    "margin_db",
    "strategy",
    "method",
    "confidence",
    "horizon",
    "max_word_length",
    "cost_table",
    "engine",
)
OPTIMIZE_FIELDS = ("snr_floor_db", *_SEARCH_FIELDS, "partitions", "outer_iterations")
PARETO_FIELDS = _SEARCH_FIELDS


def _add_analyze_parser(sub) -> None:
    parser = sub.add_parser(
        "analyze",
        help="noise-analysis pipeline over benchmark circuits",
        description="Analyze benchmark circuits with every noise model "
        "and validate the bounds against Monte-Carlo simulation.",
    )
    parser.add_argument(
        "circuits", nargs="*", metavar="CIRCUIT", help="circuit names (default: all)"
    )
    add_config_arguments(parser, ANALYZE_DEFAULTS, ANALYZE_FIELDS)
    add_driver_arguments(parser, None, workers="process-parallel shards", circuit=False, smoke=None)


def _add_search_arguments(parser, defaults, fields, workers: str | None) -> None:
    """Flags ``repro optimize`` and ``repro pareto`` share."""
    parser.add_argument(
        "circuit", metavar="CIRCUIT", help="benchmark circuit name or generator spec"
    )
    add_config_arguments(parser, defaults, fields)
    add_driver_arguments(parser, None, workers=workers, circuit=False, smoke=None)
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="persist the search state here so an interrupted run can --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the search from an existing --checkpoint snapshot",
    )


def _add_optimize_parser(sub) -> None:
    parser = sub.add_parser(
        "optimize",
        help="word-length optimization of one circuit",
        description="Search for a cheap word-length assignment of one "
        "benchmark circuit meeting an SNR floor, then Monte-Carlo "
        "validate the returned design.",
    )
    _add_search_arguments(
        parser,
        OPTIMIZE_DEFAULTS,
        OPTIMIZE_FIELDS,
        workers="Monte-Carlo validation shard workers (and, for --strategy "
        "decomposed, the subproblem worker processes)",
    )
    parser.add_argument("--samples", type=int, default=20_000, help="MC validation samples")
    parser.add_argument(
        "--inner",
        default="greedy",
        help="inner strategy of --strategy decomposed (greedy / uniform)",
    )


def _add_pareto_parser(sub) -> None:
    parser = sub.add_parser(
        "pareto",
        help="cost-vs-SNR Pareto sweep of one circuit in one call",
        description="Solve one benchmark circuit at every requested SNR "
        "floor, sharing analysis state and warm starts across floors, "
        "and print the (monotone) cost-vs-SNR front.",
    )
    _add_search_arguments(parser, PARETO_DEFAULTS, PARETO_FIELDS, workers=None)
    parser.add_argument(
        "--floor",
        action="append",
        type=float,
        dest="floors",
        help=f"SNR floor in dB (repeatable; default {list(DEFAULT_FLOORS)})",
    )


def _add_bench_parser(sub) -> None:
    parser = sub.add_parser(
        "bench",
        help=f"run a full benchmark driver ({' / '.join(BENCH_SUITES)})",
        description="Forward the remaining arguments to a benchmark "
        "driver; exit code is the driver's gate.",
    )
    parser.add_argument("suite", choices=list(BENCH_SUITES))
    parser.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the driver (prefix with -- to pass flags)",
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.benchmarks.bench_analysis import _print_document, run_benchmarks
    from repro.benchmarks.circuits import CIRCUITS

    unknown = [name for name in args.circuits if name not in CIRCUITS]
    if unknown:
        raise DesignError(
            f"unknown circuit(s): {', '.join(unknown)}; available: {', '.join(CIRCUITS)}"
        )
    config = config_from_args(args, ANALYZE_DEFAULTS, ANALYZE_FIELDS, seed=args.seed)
    document = run_benchmarks(config, circuits=args.circuits or None, workers=args.workers)
    _print_document(document)
    if args.out:
        write_document(document, args.out)
    if document["all_enclosed"] is None:
        print("note: no Monte-Carlo enclosure checks ran (montecarlo not requested)")
    return 1 if document["all_enclosed"] is False else 0


def _search_checkpoint(
    args: argparse.Namespace, config: OptimizeConfig, command: str, **extra_meta: object
):
    """The ``--checkpoint`` snapshot of an optimize/pareto run, or ``None``.

    The snapshot's fingerprint covers the search config and options, so
    ``--resume`` refuses a file written under a different configuration.
    Without ``--resume`` a stale snapshot is cleared first — a fresh run
    must not silently continue an old one.
    """
    if args.checkpoint is None:
        if args.resume:
            raise CheckpointError("--resume requires --checkpoint PATH")
        return None
    from repro.jobs import SearchCheckpoint

    meta = {
        "command": command,
        "circuit": args.circuit,
        "config": dataclasses.asdict(config),
        "seed": args.seed,
        **extra_meta,
    }
    checkpoint = SearchCheckpoint(args.checkpoint, meta=meta)
    if not args.resume:
        checkpoint.clear()
    return checkpoint


def _resolve_circuit(name: str):
    """A benchmark circuit by name, or a generated one from a spec string."""
    from repro.benchmarks.circuits import CIRCUITS, get_circuit
    from repro.benchmarks.generators import GENERATORS, generate_circuit

    if name in CIRCUITS:
        return get_circuit(name)
    base = name.partition(":")[0]
    if base in GENERATORS:
        return generate_circuit(name)
    raise DesignError(
        f"unknown circuit {name!r}; available circuits: {', '.join(CIRCUITS)}; "
        f"generators: {', '.join(GENERATORS)} "
        "(spec syntax: fir_cascade:taps=8,samples=64)"
    )


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.optimize import OptimizationProblem, get_optimizer

    circuit = _resolve_circuit(args.circuit)
    config = config_from_args(args, OPTIMIZE_DEFAULTS, OPTIMIZE_FIELDS)
    problem = OptimizationProblem.from_circuit(
        circuit, config.snr_floor_db, config=config.replace(mc_workers=args.workers)
    )
    checkpoint = _search_checkpoint(args, config, "optimize", inner=args.inner)
    options = strategy_options(config.strategy, args.seed, inner=args.inner, workers=args.workers)
    result = get_optimizer(config.strategy, **options).optimize(problem, checkpoint=checkpoint)
    print(result.summary())
    document = result.to_dict(include_trace=False)
    mc_validated = False
    if result.feasible and result.assignment is not None:
        mc_snr = problem.monte_carlo_snr(result.assignment, samples=args.samples, seed=args.seed)
        mc_validated = bool(mc_snr >= config.snr_floor_db)
        document["mc_snr_db"] = mc_snr
        document["mc_validated"] = mc_validated
        print(f"monte-carlo: {mc_snr:.2f} dB ({'ok' if mc_validated else 'BELOW FLOOR'})")
        print("word lengths:")
        for node, bits in sorted(result.assignment.word_lengths().items()):
            print(f"  {node:20s} {bits:3d} bits")
    if args.out:
        write_document(document, args.out)
    return 0 if result.feasible and mc_validated else 1


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.optimize import OptimizationProblem

    circuit = _resolve_circuit(args.circuit)
    floors = args.floors or list(DEFAULT_FLOORS)
    config = config_from_args(args, PARETO_DEFAULTS, PARETO_FIELDS, snr_floor_db=max(floors))
    problem = OptimizationProblem.from_circuit(circuit, config.snr_floor_db, config=config)
    checkpoint = _search_checkpoint(args, config, "pareto", floors=sorted(floors))
    front = problem.pareto(
        floors,
        strategy=config.strategy,
        checkpoint=checkpoint,
        **strategy_options(config.strategy, args.seed),
    )
    print(front.summary())
    monotone = front.is_monotone()
    feasible = len(front.feasible_points)
    print(
        f"\n{feasible}/{len(front.points)} floors feasible; "
        f"curve {'monotone' if monotone else 'NOT MONOTONE'}; "
        f"{problem.analyzer_calls} analyzer calls, "
        f"{problem.fallback_probes} move probes"
    )
    if args.out:
        write_document(front.to_dict(), args.out)
    return 0 if monotone and feasible > 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if args.suite == "analysis":
        from repro.benchmarks.bench_analysis import main as driver
    elif args.suite == "optimize":
        from repro.benchmarks.bench_optimize import main as driver
    elif args.suite == "pareto":
        from repro.benchmarks.bench_pareto import main as driver
    elif args.suite == "scale":
        from repro.benchmarks.bench_scale import main as driver
    else:
        from repro.benchmarks.compare_bench import main as driver
    return int(driver(rest))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fixed-point noise analysis and word-length optimization workloads.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_analyze_parser(sub)
    _add_optimize_parser(sub)
    _add_pareto_parser(sub)
    _add_bench_parser(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "pareto":
            return _cmd_pareto(args)
        return _cmd_bench(args)
    except ReproError as exc:
        # One structured diagnostic instead of a traceback: every library
        # failure (unknown circuit, malformed checkpoint, infeasible
        # search, dead worker pool) derives from ReproError.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
