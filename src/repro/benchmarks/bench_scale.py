"""Benchmark driver: decomposed optimization on large generated graphs.

The paper-scale experiment the whole-graph strategies cannot run: each
point generates a structured circuit (deep-unrolled FIR/IIR cascades, a
quantized MLP layer — see :mod:`repro.benchmarks.generators`), optimizes
it with the ``decomposed`` strategy, Monte-Carlo-validates the returned
design at the SNR floor, and records the time-vs-size curve into
``BENCH_scale.json``.

Where the circuit is small enough for whole-graph greedy to finish
(``greedy_node_limit`` arithmetic nodes), the point also runs greedy and
reports the decomposed-vs-greedy **quality gap**.  Points run
sequentially in this process — the parallelism lives *inside* the
decomposed optimizer, which shards its per-partition subproblems across
``--workers`` job processes.

The exit code is the CI gate.  It is non-zero unless every point:

* found a feasible design,
* holds the SNR floor under bit-true Monte-Carlo simulation,
* finished within the per-point time budget (the headline claim:
  a >= 5,000-node circuit end-to-end in minutes), and
* where greedy ran, costs within ``quality_gap_limit`` of it,

and (full runs only) the sweep actually contains a point of at least
``require_nodes`` nodes, so the artifact cannot silently shrink.

Usage::

    PYTHONPATH=src python -m repro.benchmarks.bench_scale               # full sweep
    PYTHONPATH=src python -m repro.benchmarks.bench_scale --smoke       # CI-sized
    PYTHONPATH=src python -m repro.benchmarks.bench_scale --workers 4   # sharded
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from typing import Sequence

from repro.benchmarks.generators import generate_circuit
from repro.benchmarks.runner_options import (
    add_config_arguments,
    add_driver_arguments,
    config_from_args,
    platform_block,
    write_document,
)
from repro.config import OptimizeConfig
from repro.dfg.node import OpType
from repro.errors import CheckpointError
from repro.jobs import SearchCheckpoint
from repro.optimize import COST_TABLES, OptimizationProblem, get_optimizer

__all__ = ["run_scale_benchmarks", "main", "FULL_POINTS", "SMOKE_POINTS"]

DEFAULT_OUTPUT = "BENCH_scale.json"
SUITE = "scaling"

#: The driver's defaults, and the fields its flags expose.
DEFAULTS = OptimizeConfig(strategy="decomposed", method="ia")
FIELDS = (
    "snr_floor_db",
    "margin_db",
    "method",
    "max_word_length",
    "cost_table",
    "outer_iterations",
)

#: Full sweep: sizes from greedy-comparable to the >= 5,000-node
#: headline point.  ``partitions`` of ``None`` lets the optimizer
#: auto-size; explicit values force multi-partition operation on sizes
#: where the auto heuristic would collapse to one piece.
FULL_POINTS = (
    {"spec": "fir_cascade:taps=8,samples=12", "partitions": None},
    {"spec": "fir_cascade:taps=8,samples=40", "partitions": None},
    {"spec": "iir_cascade:sections=6,samples=40", "partitions": None},
    {"spec": "fir_cascade:taps=8,samples=330", "partitions": None},
)

#: CI smoke sweep: one greedy-comparable point plus one forced
#: multi-partition point, sized for a couple of minutes on two workers.
SMOKE_POINTS = (
    {"spec": "fir_cascade:taps=4,samples=24", "partitions": None},
    {"spec": "mlp_layer:inputs=6,neurons=4", "partitions": 2},
)


def _arithmetic_nodes(graph) -> int:
    weightless = (OpType.INPUT, OpType.CONST, OpType.OUTPUT)
    return sum(1 for node in graph.nodes() if node.op not in weightless)


def _result_row(result, mc_snr_db, snr_floor_db: float, runtime_s: float) -> dict:
    return {
        "cost": result.cost,
        "snr_db": result.snr_db,
        "feasible": result.feasible,
        "baseline_cost": result.baseline_cost,
        "improvement": result.improvement,
        "analyzer_calls": result.analyzer_calls,
        "mc_snr_db": mc_snr_db,
        "mc_validated": bool(mc_snr_db is not None and mc_snr_db >= snr_floor_db),
        "runtime_s": runtime_s,
    }


def run_scale_benchmarks(
    config: OptimizeConfig = DEFAULTS,
    points: Sequence[dict] = FULL_POINTS,
    mc_samples: int = 4096,
    seed: int = 0,
    workers: int = 1,
    timeout_s: float | None = None,
    retries: int = 1,
    time_budget_s: float = 600.0,
    quality_gap_limit: float = 0.05,
    greedy_node_limit: int = 700,
    require_nodes: int = 5000,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> dict:
    """Run the scaling sweep and return the report document.

    ``config`` carries the search knobs of every point (the decomposed
    solve; the greedy comparison replaces the strategy).
    ``checkpoint_path`` snapshots the decomposed outer loop of each point
    to ``<path>.<index>.json`` (a :class:`~repro.jobs.SearchCheckpoint`);
    with ``resume`` a killed sweep re-enters mid-loop and, by the
    strategy's design, lands on the bit-identical design.
    """
    config = config.replace(mc_workers=1)
    snr_floor_db = config.snr_floor_db
    document: dict = {
        "suite": SUITE,
        "config": {
            "snr_floor_db": snr_floor_db,
            "margin_db": config.margin_db,
            "method": config.method,
            "max_word_length": config.max_word_length,
            "mc_samples": mc_samples,
            "seed": seed,
            "cost_table": config.cost_table,
            "workers": workers,
            "outer_iterations": config.outer_iterations,
            "time_budget_s": time_budget_s,
            "quality_gap_limit": quality_gap_limit,
            "greedy_node_limit": greedy_node_limit,
            "require_nodes": require_nodes,
            "points": [dict(point) for point in points],
        },
        "platform": platform_block(),
        "points": [],
    }
    all_passed = True
    largest = 0
    for index, point in enumerate(points):
        spec = point["spec"]
        circuit = generate_circuit(spec)
        nodes = len(circuit.graph.names())
        arithmetic = _arithmetic_nodes(circuit.graph)
        largest = max(largest, nodes)

        problem = OptimizationProblem.from_circuit(circuit, snr_floor_db, config=config)
        optimizer = get_optimizer(
            "decomposed",
            partitions=point.get("partitions"),
            workers=workers,
            timeout_s=timeout_s,
            retries=retries,
            seed=seed,
        )
        checkpoint = None
        if checkpoint_path is not None:
            checkpoint = SearchCheckpoint(
                f"{checkpoint_path}.{index}.json",
                meta={
                    "suite": SUITE,
                    "spec": spec,
                    "seed": seed,
                    "config": dataclasses.asdict(config),
                },
            )
            if not resume:
                checkpoint.clear()
        started = time.perf_counter()
        result = optimizer.optimize(problem, checkpoint=checkpoint)
        runtime_s = time.perf_counter() - started
        mc_snr = None
        if result.feasible and result.assignment is not None:
            mc_snr = problem.monte_carlo_snr(
                result.assignment, samples=mc_samples, seed=seed
            )
        decomposed_row = _result_row(result, mc_snr, snr_floor_db, runtime_s)
        decomposed_row["partitions"] = optimizer._resolve_parts(problem)

        greedy_row = None
        quality_gap = None
        if arithmetic <= greedy_node_limit:
            greedy_problem = OptimizationProblem.from_circuit(
                circuit, snr_floor_db, config=config.replace(strategy="greedy")
            )
            greedy_started = time.perf_counter()
            greedy_result = get_optimizer("greedy").optimize(greedy_problem)
            greedy_runtime = time.perf_counter() - greedy_started
            greedy_mc = None
            if greedy_result.feasible and greedy_result.assignment is not None:
                greedy_mc = greedy_problem.monte_carlo_snr(
                    greedy_result.assignment, samples=mc_samples, seed=seed
                )
            greedy_row = _result_row(greedy_result, greedy_mc, snr_floor_db, greedy_runtime)
            if greedy_result.feasible and greedy_result.cost > 0.0:
                quality_gap = (result.cost - greedy_result.cost) / greedy_result.cost

        within_budget = runtime_s <= time_budget_s
        gap_ok = quality_gap is None or quality_gap <= quality_gap_limit
        passed = (
            decomposed_row["feasible"]
            and decomposed_row["mc_validated"]
            and within_budget
            and gap_ok
        )
        all_passed = all_passed and passed
        document["points"].append(
            {
                "spec": spec,
                "circuit": circuit.name,
                "nodes": nodes,
                "arithmetic_nodes": arithmetic,
                "decomposed": decomposed_row,
                "greedy": greedy_row,
                "quality_gap": quality_gap,
                "within_budget": within_budget,
                "passed": passed,
            }
        )

    document["time_curve"] = [
        {"nodes": row["nodes"], "runtime_s": row["decomposed"]["runtime_s"]}
        for row in document["points"]
    ]
    document["largest_nodes"] = largest
    document["size_requirement_met"] = largest >= require_nodes
    document["passed"] = all_passed and document["size_requirement_met"]
    return document


def _print_document(document: dict) -> None:
    print(f"== scaling sweep (floor {document['config']['snr_floor_db']:.0f}dB, "
          f"method {document['config']['method']}, "
          f"{document['config']['workers']} worker(s))")
    for row in document["points"]:
        d = row["decomposed"]
        gap = row["quality_gap"]
        gap_txt = f" gap={gap * 100.0:+6.2f}%" if gap is not None else "             "
        mc = d["mc_snr_db"]
        mc_txt = f"mc={mc:5.1f}dB" if mc is not None else "mc=  n/a"
        print(
            f"  {row['spec']:34s} n={row['nodes']:5d} parts={d['partitions']:3d} "
            f"cost={d['cost']:10.1f} snr={d['snr_db']:5.1f}dB {mc_txt}{gap_txt} "
            f"t={d['runtime_s']:7.1f}s {'ok' if row['passed'] else 'FAIL'}"
        )
    print(
        f"  -> largest point {document['largest_nodes']} nodes "
        f"(required {document['config']['require_nodes']}), "
        f"passed={document['passed']}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_config_arguments(
        parser,
        DEFAULTS,
        FIELDS,
        method={"help": "noise-analysis method of the inner solves (ia recommended at scale)"},
        cost_table={"choices": list(COST_TABLES)},
    )
    add_driver_arguments(
        parser,
        DEFAULT_OUTPUT,
        workers="subproblem worker processes inside the decomposed optimizer",
        circuit=False,
    )
    parser.add_argument("--samples", type=int, default=4096)
    parser.add_argument(
        "--time-budget",
        type=float,
        default=600.0,
        dest="time_budget_s",
        help="per-point runtime gate in seconds",
    )
    parser.add_argument(
        "--quality-gap-limit",
        type=float,
        default=0.05,
        help="maximum decomposed-vs-greedy cost gap where greedy runs",
    )
    parser.add_argument(
        "--greedy-node-limit",
        type=int,
        default=700,
        help="run the whole-graph greedy comparison up to this many arithmetic nodes",
    )
    parser.add_argument(
        "--spec",
        action="append",
        help="replace the sweep with these generator specs (repeatable)",
    )
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-subproblem wall-clock budget inside the decomposed optimizer",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="maximum attempts per subproblem (1 = no retries)",
    )
    group.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="snapshot each point's outer loop to PATH.<index>.json",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="resume each point's outer loop from its --checkpoint snapshot",
    )
    args = parser.parse_args(argv)
    if args.resume and args.checkpoint is None:
        raise CheckpointError("--resume requires --checkpoint PATH")

    points: Sequence[dict]
    require_nodes = 5000
    if args.spec:
        points = tuple({"spec": spec, "partitions": None} for spec in args.spec)
        require_nodes = 0
    elif args.smoke:
        points = SMOKE_POINTS
        require_nodes = 0
        args.samples = min(args.samples, 1024)
    else:
        points = FULL_POINTS

    document = run_scale_benchmarks(
        config_from_args(args, DEFAULTS, FIELDS),
        points=points,
        mc_samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        timeout_s=args.timeout,
        retries=args.retries,
        time_budget_s=args.time_budget_s,
        quality_gap_limit=args.quality_gap_limit,
        greedy_node_limit=args.greedy_node_limit,
        require_nodes=require_nodes,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )

    _print_document(document)
    write_document(document, args.out, passed=document["passed"])
    return 0 if document["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
