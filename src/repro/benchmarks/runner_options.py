"""Shared command-line plumbing of the ``repro`` subcommands and ``bench_*`` drivers.

Every driver declares its defaults exactly once, as one frozen
:class:`~repro.config.AnalysisConfig` / :class:`~repro.config.OptimizeConfig`
value.  This module turns that value into flags and back:

:func:`add_config_arguments` / :func:`config_from_args`
    One flag per chosen config field (spellings in :data:`CONFIG_FLAGS`),
    defaulting to the driver's declared value; the parsed namespace is
    folded back into a config with one ``.replace(...)``.
:func:`add_driver_arguments` / :func:`write_document`
    The ``--out/--seed/--workers/--circuit/--smoke`` flags every driver
    shares, and the write-the-JSON-and-report tail.
:func:`platform_block` / :func:`run_jobs` / :func:`job_row` / :func:`print_parallel`
    The document blocks every job-sharded driver writes and prints.
:func:`strategy_options`
    The ``get_optimizer`` options of the decomposed strategy.

The fault-tolerance flags are shared too:

``--timeout``
    Per-job wall-clock budget in seconds.  An expired job's worker pool
    is killed and respawned; the job is retried if budget remains.
``--retries``
    Maximum attempts per job (1 = no retries, the legacy behavior).
    Backoff between attempts is exponential with deterministic jitter.
``--inject-faults`` / ``--fault-kinds``
    Deterministic fault injection (see :mod:`repro.jobs.faults`): each
    (job, attempt) pair draws from a seeded hash, so a faulted run
    retries the exact same cells on every machine.  Because faults fire
    *before* the job function runs, a surviving retry returns the exact
    clean value — the merged document is bit-identical to a fault-free
    run (the CI gate).  Injecting faults without an explicit
    ``--retries`` raises the budget to 3 so the run can actually
    survive them.
``--checkpoint`` / ``--resume``
    Append-only JSONL checkpoint of completed cells; ``--resume`` skips
    the cells already on disk (validated against the run-configuration
    fingerprint) and recomputes only the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Mapping, Sequence, TypeVar

from repro.benchmarks.circuits import CIRCUITS
from repro.config import ENGINES, AnalysisConfig, OptimizeConfig
from repro.errors import CheckpointError
from repro.jobs import (
    FaultPlan,
    JobCheckpoint,
    JobResult,
    JobRunner,
    JobSpec,
    RetryPolicy,
    summarize_run,
)

__all__ = [
    "CONFIG_FLAGS",
    "add_config_arguments",
    "config_from_args",
    "clamped",
    "add_driver_arguments",
    "write_document",
    "platform_block",
    "run_jobs",
    "job_row",
    "print_parallel",
    "strategy_options",
    "add_runner_arguments",
    "runner_from_args",
    "checkpoint_from_args",
    "fault_summary",
]

Config = TypeVar("Config", AnalysisConfig, OptimizeConfig)

#: Flag spelling and argparse keywords of every config field a driver
#: may expose.  The namespace attribute is the field name unless the
#: keywords say otherwise (``--samples`` and the repeatable ``--method``
#: keep their historical ``samples`` / ``method`` attributes).
CONFIG_FLAGS: dict[str, tuple[str, dict]] = {
    # AnalysisConfig
    "word_length": ("--word-length", {"type": int}),
    "methods": (
        "--method",
        {
            "action": "append",
            "dest": "method",
            "help": "restrict methods (repeatable; 'oracle' opts into the "
            "arbitrary-precision referee)",
        },
    ),
    "mc_samples": ("--samples", {"type": int, "dest": "samples"}),
    "oracle_samples": (
        "--oracle-samples",
        {"type": int, "help": "sample budget of the arbitrary-precision oracle (when requested)"},
    ),
    "oracle_precision_bits": (
        "--oracle-precision-bits",
        {"type": int, "help": "mpmath working precision of the oracle (>= 64)"},
    ),
    # OptimizeConfig
    "snr_floor_db": ("--snr-floor", {"type": float}),
    "margin_db": ("--margin", {"type": float}),
    "strategy": ("--strategy", {"help": "uniform / greedy / decomposed"}),
    "method": ("--method", {"help": "ia / aa / taylor / pna"}),
    "confidence": (
        "--confidence",
        {
            "type": float,
            "help": "accept designs whose SNR floor holds with this probability "
            "(fractional values need a PDF method such as pna; 1.0 = worst case; "
            "default: legacy mean-square noise)",
        },
    ),
    "max_word_length": ("--max-word-length", {"type": int}),
    "partitions": (
        "--partitions",
        {"type": int, "help": "partition count of --strategy decomposed (default: auto-sized)"},
    ),
    "outer_iterations": (
        "--outer-iterations",
        {"type": int, "help": "consensus-iteration budget of --strategy decomposed"},
    ),
    "cost_table": ("--cost-table", {}),
    "engine": (
        "--engine",
        {"choices": list(ENGINES), "help": "noise-analysis engine of the search's inner loop"},
    ),
    # both
    "horizon": ("--horizon", {"type": int}),
    "bins": ("--bins", {"type": int}),
}


def _dest(field: str) -> str:
    return CONFIG_FLAGS[field][1].get("dest", field)


def add_config_arguments(
    parser: argparse.ArgumentParser,
    defaults: AnalysisConfig | OptimizeConfig,
    fields: Sequence[str],
    **overrides: Mapping,
) -> None:
    """Declare one flag per config field, defaulting to ``defaults``' value.

    ``overrides`` maps a field to argparse keywords replacing the shared
    ones (a driver-specific ``help`` or ``choices``).
    """
    for field in fields:
        flag, keywords = CONFIG_FLAGS[field]
        keywords = {"dest": field, **keywords, **overrides.get(field, {})}
        parser.add_argument(flag, default=getattr(defaults, field), **keywords)


def config_from_args(
    args: argparse.Namespace, defaults: Config, fields: Sequence[str], **changes: object
) -> Config:
    """``defaults`` with the parsed ``fields`` (and any ``changes``) applied."""
    parsed = {field: getattr(args, _dest(field)) for field in fields}
    return defaults.replace(**parsed, **changes)


def clamped(values: object, **caps: float) -> dict:
    """``{name: min(current, cap)}`` — the ``--smoke`` size limits of a config or namespace."""
    return {name: min(getattr(values, name), cap) for name, cap in caps.items()}


def add_driver_arguments(
    parser: argparse.ArgumentParser,
    out: str | None,
    workers: str | None = "process-parallel shard count (1 = serial; results are identical)",
    circuit: bool = True,
    smoke: str | None = "small, fast configuration for CI smoke runs",
) -> None:
    """``--out`` / ``--seed`` plus the optional ``--workers`` / ``--circuit`` / ``--smoke``.

    ``workers`` is the help text of ``--workers`` (``None``: no such
    flag); ``smoke`` likewise for ``--smoke``.
    """
    parser.add_argument("--out", default=out, help="output JSON path")
    parser.add_argument("--seed", type=int, default=0)
    if workers is not None:
        parser.add_argument("--workers", type=int, default=1, help=workers)
    if circuit:
        parser.add_argument(
            "--circuit",
            action="append",
            choices=list(CIRCUITS),
            help="restrict to specific circuits (repeatable)",
        )
    if smoke is not None:
        parser.add_argument("--smoke", action="store_true", help=smoke)


def write_document(document: dict, out: str, **verdicts: object) -> None:
    """Write ``document`` as JSON to ``out`` and report it with its ``verdicts``."""
    Path(out).write_text(json.dumps(document, indent=2) + "\n")
    summary = ", ".join(f"{key}={value}" for key, value in verdicts.items())
    print(f"\nwrote {out}" + (f" ({summary})" if summary else ""))


def platform_block() -> dict:
    """The document's ``platform`` block."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_jobs(
    specs: Sequence[JobSpec], runner: JobRunner, checkpoint: JobCheckpoint | None
) -> tuple[list[JobResult], dict]:
    """Run ``specs`` (failures raise) and time the run.

    Returns the results and the document's volatile execution blocks:
    ``parallel``, plus ``fault_injection`` when faults are injected.
    """
    started = time.perf_counter()
    results = runner.run(specs, check=True, checkpoint=checkpoint)
    execution = {"parallel": summarize_run(runner, results, time.perf_counter() - started)}
    faults = fault_summary(runner)
    if faults is not None:
        execution["fault_injection"] = faults
    return results, execution


def job_row(result: JobResult) -> dict:
    """A job's value plus its volatile execution counters.

    ``canonical_document`` strips the counters, so retried, faulted and
    resumed runs still merge to the clean document.
    """
    row = dict(result.value)
    row["job_attempts"] = result.attempts
    row["job_timeouts"] = result.timeouts
    if result.resumed:
        row["job_resumed"] = True
    return row


def print_parallel(document: dict) -> None:
    """Print the one-line summary of the document's ``parallel`` block."""
    parallel = document["parallel"]
    print(
        f"\n{parallel['jobs']} jobs on {parallel['workers']} worker(s) "
        f"[{parallel['backend']}]: wall {parallel['wall_s']:.2f}s, "
        f"serial estimate {parallel['serial_estimate_s']:.2f}s "
        f"({parallel['parallel_speedup']:.2f}x)"
    )


def strategy_options(
    strategy: str,
    seed: int,
    inner: str = "greedy",
    workers: int = 1,
) -> dict:
    """``get_optimizer`` options of ``strategy`` beyond what its config carries.

    The decomposed strategy reads ``partitions`` / ``outer_iterations``
    from the problem's config; only its inner strategy, worker count and
    seed are options.
    """
    if strategy == "decomposed":
        return {"inner": inner, "workers": workers, "seed": seed}
    return {}


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared fault-tolerance flags to a driver's parser."""
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job wall-clock budget; an expired job is killed "
            "(and retried if --retries allows)"
        ),
    )
    group.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="maximum attempts per job (default 1; defaults to 3 when --inject-faults is active)",
    )
    group.add_argument(
        "--inject-faults",
        type=float,
        default=0.0,
        metavar="RATE",
        dest="inject_faults",
        help="deterministically inject faults into that fraction of (job, attempt) pairs",
    )
    group.add_argument(
        "--fault-kinds",
        default="exception",
        metavar="KINDS",
        dest="fault_kinds",
        help="comma-separated fault kinds to inject: exception, hang, kill",
    )
    group.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="append each completed cell to this JSONL checkpoint file",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in the --checkpoint file",
    )


def runner_from_args(args: argparse.Namespace, workers: int, seed: int = 0) -> JobRunner:
    """Build the hardened :class:`JobRunner` a driver's flags describe."""
    retries = args.retries
    if retries is None:
        retries = 3 if args.inject_faults > 0.0 else 1
    if retries < 1:
        raise CheckpointError(f"--retries must be >= 1, got {retries}")
    fault_plan = None
    if args.inject_faults > 0.0:
        kinds = tuple(k.strip() for k in str(args.fault_kinds).split(",") if k.strip())
        fault_plan = FaultPlan(rate=args.inject_faults, seed=seed, kinds=kinds)
    return JobRunner(
        workers=workers,
        timeout_s=args.timeout,
        retry=RetryPolicy(max_attempts=retries),
        fault_plan=fault_plan,
    )


def checkpoint_from_args(args: argparse.Namespace, meta: Mapping) -> JobCheckpoint | None:
    """Build the driver's :class:`JobCheckpoint`, or ``None`` without ``--checkpoint``.

    ``meta`` should be the suite's deterministic configuration document;
    its fingerprint guards ``--resume`` against splicing results from a
    differently-configured run.
    """
    if args.checkpoint is None:
        if args.resume:
            raise CheckpointError("--resume requires --checkpoint PATH")
        return None
    return JobCheckpoint(args.checkpoint, meta=meta, resume=args.resume)


def fault_summary(runner: JobRunner) -> dict | None:
    """Volatile document block describing active fault injection, if any."""
    plan = getattr(runner, "fault_plan", None)
    if plan is None:
        return None
    return {
        "rate": plan.rate,
        "seed": plan.seed,
        "kinds": list(plan.kinds),
        "max_faults_per_job": plan.max_faults_per_job,
    }
