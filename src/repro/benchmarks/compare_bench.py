"""Compare two benchmark JSON reports for CI regression gating.

Reads a *base* report (the PR's merge-base) and a *head* report (the PR
itself), lines up circuits and methods, and renders a markdown diff table
of bound tightness (enclosure width) and runtime.  The comparison fails
— non-zero exit — when:

* a method that *enclosed* the Monte-Carlo samples at base no longer
  does at head (a bound loosened into unsoundness), or
* a circuit's total runtime regressed by more than ``--max-runtime-ratio``
  (default 2x) — gated only when the head runtime *and* the absolute
  growth both exceed ``--runtime-floor`` seconds, so timer noise on
  trivial circuits (or a cold-cache base measurement) cannot fail a
  build, or
* a circuit present at base disappeared at head.

Width changes are reported but not gated: tightening and (sound)
loosening are quality signals, not correctness regressions.

``BENCH_pareto.json`` documents (``suite == "pareto-front"``) are
detected automatically and diffed point-by-point instead: the head fails
when a floor's design got **dominated** — more expensive than the base
design at the same floor — or when a floor that was feasible
(respectively Monte-Carlo validated) at base no longer is, or when a
circuit or floor disappeared.  Cost *improvements* are reported, never
gated.

``BENCH_scale.json`` documents (``suite == "scaling"``) diff the
time-vs-size curve instead: the head fails when a size's decomposed
runtime regressed by more than ``--max-runtime-ratio`` (same noise
floors as above), when its decomposed-vs-greedy quality gap **widened**
by more than ``--gap-tolerance``, when a point lost feasibility or
Monte-Carlo validation, or when a size present at base disappeared.

Usage::

    python -m repro.benchmarks.compare_bench BASE.json HEAD.json

Inside GitHub Actions the markdown table is appended to the job summary
automatically (``--summary`` defaults to ``$GITHUB_STEP_SUMMARY`` when
that variable is set); pass ``--summary PATH`` to redirect it or
``--summary ''`` to suppress it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.noisemodel.analyzer import BOUND_METHODS

__all__ = [
    "compare_documents",
    "compare_pareto_documents",
    "compare_scaling_documents",
    "render_markdown",
    "render_pareto_markdown",
    "render_scaling_markdown",
    "strip_execution_counters",
    "main",
]

#: Fault-tolerance execution counters: how a run *executed* (retries,
#: timeouts, resumed cells, injected faults), never what it *computed*.
#: A base measured without fault injection must diff clean against a
#: head measured with it, so these are stripped before comparing.
EXECUTION_COUNTER_KEYS = ("job_attempts", "job_timeouts", "job_resumed", "fault_injection")


def strip_execution_counters(document: object) -> object:
    """Recursively drop the fault-tolerance execution counters."""
    if isinstance(document, dict):
        return {
            key: strip_execution_counters(value)
            for key, value in document.items()
            if key not in EXECUTION_COUNTER_KEYS
        }
    if isinstance(document, list):
        return [strip_execution_counters(value) for value in document]
    return document


def _width(row: dict) -> float:
    return float(row["upper"]) - float(row["lower"])


def _ratio(head: float, base: float) -> float:
    if base <= 0.0:
        return math.inf if head > 0.0 else 1.0
    return head / base


def compare_documents(
    base: dict,
    head: dict,
    max_runtime_ratio: float = 2.0,
    runtime_floor: float = 0.05,
) -> Tuple[List[dict], List[str]]:
    """Diff two benchmark documents.

    Returns ``(rows, failures)``: one row per circuit x method with
    width/runtime ratios and verdicts, plus a flat list of failure
    messages (empty when the head passes the gate).
    """
    rows: List[dict] = []
    failures: List[str] = []
    base_circuits = base.get("circuits", {})
    head_circuits = head.get("circuits", {})

    for circuit, base_entry in base_circuits.items():
        head_entry = head_circuits.get(circuit)
        if head_entry is None:
            failures.append(f"circuit {circuit!r} present at base is missing at head")
            continue
        base_total = float(base_entry.get("total_runtime_s", 0.0))
        head_total = float(head_entry.get("total_runtime_s", 0.0))
        runtime_ratio = _ratio(head_total, base_total)
        # Both the ratio and the absolute growth must be significant: a
        # cold-cache base measurement of a few ms can show a huge ratio
        # that is pure timer noise.
        runtime_regressed = (
            runtime_ratio > max_runtime_ratio
            and head_total > runtime_floor
            and head_total - base_total > runtime_floor
        )
        if runtime_regressed:
            failures.append(
                f"{circuit}: total runtime regressed {runtime_ratio:.2f}x "
                f"({base_total * 1e3:.1f}ms -> {head_total * 1e3:.1f}ms)"
            )
        for method, base_row in base_entry.get("results", {}).items():
            head_row = head_entry.get("results", {}).get(method)
            if head_row is None:
                failures.append(f"{circuit}/{method}: method missing at head")
                continue
            base_enclosed = base_entry.get("enclosure", {}).get(method)
            head_enclosed = head_entry.get("enclosure", {}).get(method)
            unsound = (
                method in BOUND_METHODS
                and base_enclosed is True
                and head_enclosed is False
            )
            if unsound:
                failures.append(
                    f"{circuit}/{method}: bound loosened to UNSOUND "
                    "(enclosed Monte-Carlo at base, violates it at head)"
                )
            base_width = _width(base_row)
            head_width = _width(head_row)
            rows.append(
                {
                    "circuit": circuit,
                    "method": method,
                    "base_width": base_width,
                    "head_width": head_width,
                    "width_ratio": _ratio(head_width, base_width),
                    "base_runtime_s": float(base_row.get("runtime_s", 0.0)),
                    "head_runtime_s": float(head_row.get("runtime_s", 0.0)),
                    "circuit_runtime_ratio": runtime_ratio,
                    "runtime_regressed": runtime_regressed,
                    "base_enclosed": base_enclosed,
                    "head_enclosed": head_enclosed,
                    "unsound": unsound,
                }
            )
    return rows, failures


def compare_pareto_documents(
    base: dict,
    head: dict,
    cost_tolerance: float = 1e-9,
) -> Tuple[List[dict], List[str]]:
    """Diff two ``pareto-front`` documents point by point.

    A head point *dominates* regression-wise when its cost exceeds the
    base cost at the same floor by more than ``cost_tolerance``
    (relative) — the curve got strictly worse somewhere the base already
    solved.  Feasibility and Monte-Carlo validation may only flip
    upward; a circuit or floor present at base must exist at head.
    """
    rows: List[dict] = []
    failures: List[str] = []
    base_circuits = base.get("circuits", {})
    head_circuits = head.get("circuits", {})

    for circuit, base_entry in base_circuits.items():
        head_entry = head_circuits.get(circuit)
        if head_entry is None:
            failures.append(f"circuit {circuit!r} present at base is missing at head")
            continue
        head_points = {
            float(point["snr_floor_db"]): point for point in head_entry.get("points", [])
        }
        for base_point in base_entry.get("points", []):
            floor = float(base_point["snr_floor_db"])
            head_point = head_points.get(floor)
            if head_point is None:
                failures.append(f"{circuit}: floor {floor:g}dB present at base is missing at head")
                continue
            base_cost = float(base_point["cost"])
            head_cost = float(head_point["cost"])
            dominated = (
                bool(base_point["feasible"])
                and bool(head_point["feasible"])
                and head_cost > base_cost * (1.0 + cost_tolerance)
            )
            if dominated:
                failures.append(
                    f"{circuit} @ {floor:g}dB: dominated regression — cost "
                    f"{base_cost:.1f} -> {head_cost:.1f} ({_ratio(head_cost, base_cost):.3f}x)"
                )
            lost_feasibility = bool(base_point["feasible"]) and not head_point["feasible"]
            if lost_feasibility:
                failures.append(
                    f"{circuit} @ {floor:g}dB: feasible at base, infeasible at head"
                )
            lost_validation = (
                base_point.get("mc_validated") is True
                and head_point.get("mc_validated") is False
            )
            if lost_validation:
                failures.append(
                    f"{circuit} @ {floor:g}dB: Monte-Carlo validated at base, "
                    "below floor at head"
                )
            rows.append(
                {
                    "circuit": circuit,
                    "snr_floor_db": floor,
                    "base_cost": base_cost,
                    "head_cost": head_cost,
                    "cost_ratio": _ratio(head_cost, base_cost),
                    "base_feasible": bool(base_point["feasible"]),
                    "head_feasible": bool(head_point["feasible"]),
                    "base_mc_validated": base_point.get("mc_validated"),
                    "head_mc_validated": head_point.get("mc_validated"),
                    "dominated": dominated,
                    "lost_feasibility": lost_feasibility,
                    "lost_validation": lost_validation,
                }
            )
        if base_entry.get("monotone") is True and head_entry.get("monotone") is False:
            failures.append(f"{circuit}: curve was monotone at base, is not at head")
    return rows, failures


def compare_scaling_documents(
    base: dict,
    head: dict,
    max_runtime_ratio: float = 2.0,
    runtime_floor: float = 0.05,
    gap_tolerance: float = 0.01,
) -> Tuple[List[dict], List[str]]:
    """Diff two ``scaling`` documents size by size.

    Points are keyed by generator spec.  Runtime is gated with the same
    double guard as the analysis diff (ratio *and* absolute growth must
    both be significant).  The decomposed-vs-greedy quality gap may
    drift within ``gap_tolerance`` (absolute, on the fractional gap) —
    beyond that the decomposition's quality regressed.  Feasibility and
    Monte-Carlo validation may only flip upward.
    """
    rows: List[dict] = []
    failures: List[str] = []
    head_points = {point["spec"]: point for point in head.get("points", [])}

    for base_point in base.get("points", []):
        spec = base_point["spec"]
        head_point = head_points.get(spec)
        if head_point is None:
            failures.append(f"size {spec!r} present at base is missing at head")
            continue
        base_row = base_point["decomposed"]
        head_row = head_point["decomposed"]
        base_runtime = float(base_row.get("runtime_s", 0.0))
        head_runtime = float(head_row.get("runtime_s", 0.0))
        runtime_ratio = _ratio(head_runtime, base_runtime)
        runtime_regressed = (
            runtime_ratio > max_runtime_ratio
            and head_runtime > runtime_floor
            and head_runtime - base_runtime > runtime_floor
        )
        if runtime_regressed:
            failures.append(
                f"{spec}: decomposed runtime regressed {runtime_ratio:.2f}x "
                f"({base_runtime:.1f}s -> {head_runtime:.1f}s)"
            )
        base_gap = base_point.get("quality_gap")
        head_gap = head_point.get("quality_gap")
        gap_widened = False
        if base_gap is not None and head_gap is None:
            failures.append(
                f"{spec}: greedy quality comparison present at base is missing at head"
            )
        elif base_gap is not None and head_gap is not None:
            gap_widened = float(head_gap) > float(base_gap) + gap_tolerance
            if gap_widened:
                failures.append(
                    f"{spec}: quality gap widened "
                    f"{float(base_gap) * 100.0:+.2f}% -> {float(head_gap) * 100.0:+.2f}% "
                    f"(tolerance {gap_tolerance * 100.0:.1f}%)"
                )
        lost_feasibility = bool(base_row.get("feasible")) and not head_row.get("feasible")
        if lost_feasibility:
            failures.append(f"{spec}: feasible at base, infeasible at head")
        lost_validation = (
            base_row.get("mc_validated") is True
            and head_row.get("mc_validated") is False
        )
        if lost_validation:
            failures.append(
                f"{spec}: Monte-Carlo validated at base, below floor at head"
            )
        rows.append(
            {
                "spec": spec,
                "nodes": int(head_point.get("nodes", base_point.get("nodes", 0))),
                "base_runtime_s": base_runtime,
                "head_runtime_s": head_runtime,
                "runtime_ratio": runtime_ratio,
                "runtime_regressed": runtime_regressed,
                "base_cost": float(base_row.get("cost", 0.0)),
                "head_cost": float(head_row.get("cost", 0.0)),
                "base_gap": base_gap,
                "head_gap": head_gap,
                "gap_widened": gap_widened,
                "lost_feasibility": lost_feasibility,
                "lost_validation": lost_validation,
            }
        )
    return rows, failures


def render_markdown(rows: List[dict], failures: List[str]) -> str:
    """Render the diff as a GitHub-flavored markdown job summary."""
    lines = ["## Benchmark regression: base vs head", ""]
    if failures:
        lines.append("**FAILED:**")
        lines.extend(f"- {message}" for message in failures)
    else:
        lines.append("**PASSED** — no unsound bounds, no runtime regression.")
    lines.append("")
    lines.append(
        "| circuit | method | base width | head width | width ratio "
        "| base t (ms) | head t (ms) | enclosure |"
    )
    lines.append("|---|---|---|---|---|---|---|---|")
    for row in rows:
        if row["unsound"]:
            verdict = "LOOSENED TO UNSOUND"
        elif row["head_enclosed"] is None:
            verdict = "n/a"
        else:
            verdict = "sound" if row["head_enclosed"] else "not enclosed"
        lines.append(
            f"| {row['circuit']} | {row['method']} "
            f"| {row['base_width']:.3e} | {row['head_width']:.3e} "
            f"| {row['width_ratio']:.2f} "
            f"| {row['base_runtime_s'] * 1e3:.2f} | {row['head_runtime_s'] * 1e3:.2f} "
            f"| {verdict} |"
        )
    return "\n".join(lines) + "\n"


def render_pareto_markdown(rows: List[dict], failures: List[str]) -> str:
    """Render the Pareto diff as a GitHub-flavored markdown job summary."""
    lines = ["## Pareto-front regression: base vs head", ""]
    if failures:
        lines.append("**FAILED:**")
        lines.extend(f"- {message}" for message in failures)
    else:
        lines.append("**PASSED** — no dominated points, no feasibility regressions.")
    lines.append("")
    lines.append("| circuit | floor (dB) | base cost | head cost | ratio | verdict |")
    lines.append("|---|---|---|---|---|---|")
    for row in rows:
        if row["dominated"]:
            verdict = "DOMINATED"
        elif row["lost_feasibility"]:
            verdict = "LOST FEASIBILITY"
        elif row["lost_validation"]:
            verdict = "LOST MC VALIDATION"
        elif not row["base_feasible"] and row["head_feasible"]:
            verdict = "newly feasible"
        elif row["head_cost"] < row["base_cost"]:
            verdict = "improved"
        else:
            verdict = "ok"
        lines.append(
            f"| {row['circuit']} | {row['snr_floor_db']:g} "
            f"| {row['base_cost']:.1f} | {row['head_cost']:.1f} "
            f"| {row['cost_ratio']:.3f} | {verdict} |"
        )
    return "\n".join(lines) + "\n"


def render_scaling_markdown(rows: List[dict], failures: List[str]) -> str:
    """Render the scaling diff as a GitHub-flavored markdown job summary."""
    lines = ["## Scaling regression: base vs head", ""]
    if failures:
        lines.append("**FAILED:**")
        lines.extend(f"- {message}" for message in failures)
    else:
        lines.append(
            "**PASSED** — no runtime regression, no quality-gap widening, "
            "no feasibility regressions."
        )
    lines.append("")
    lines.append(
        "| spec | nodes | base t (s) | head t (s) | ratio "
        "| base gap | head gap | verdict |"
    )
    lines.append("|---|---|---|---|---|---|---|---|")
    for row in rows:
        if row["runtime_regressed"]:
            verdict = "RUNTIME REGRESSED"
        elif row["gap_widened"]:
            verdict = "GAP WIDENED"
        elif row["lost_feasibility"]:
            verdict = "LOST FEASIBILITY"
        elif row["lost_validation"]:
            verdict = "LOST MC VALIDATION"
        else:
            verdict = "ok"
        base_gap = row["base_gap"]
        head_gap = row["head_gap"]
        base_gap_txt = f"{base_gap * 100.0:+.2f}%" if base_gap is not None else "n/a"
        head_gap_txt = f"{head_gap * 100.0:+.2f}%" if head_gap is not None else "n/a"
        lines.append(
            f"| {row['spec']} | {row['nodes']} "
            f"| {row['base_runtime_s']:.1f} | {row['head_runtime_s']:.1f} "
            f"| {row['runtime_ratio']:.2f} "
            f"| {base_gap_txt} | {head_gap_txt} | {verdict} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="benchmark JSON of the merge-base")
    parser.add_argument("head", help="benchmark JSON of the PR head")
    parser.add_argument(
        "--summary",
        default=os.environ.get("GITHUB_STEP_SUMMARY"),
        help="file to append the markdown table to; defaults to "
        "$GITHUB_STEP_SUMMARY when set, so any CI step that runs the "
        "comparison gets a readable job summary without downloading "
        "artifacts (pass --summary '' to suppress)",
    )
    parser.add_argument("--max-runtime-ratio", type=float, default=2.0)
    parser.add_argument(
        "--runtime-floor",
        type=float,
        default=0.05,
        help="ignore runtime ratios when head runtime is below this many seconds",
    )
    parser.add_argument(
        "--gap-tolerance",
        type=float,
        default=0.01,
        help="allowed absolute widening of the decomposed-vs-greedy quality gap "
        "(scaling documents only)",
    )
    args = parser.parse_args(argv)

    base = strip_execution_counters(json.loads(Path(args.base).read_text()))
    head = strip_execution_counters(json.loads(Path(args.head).read_text()))
    base_suite = base.get("suite")
    head_suite = head.get("suite")
    if {base_suite, head_suite} == {"pareto-front"}:
        rows, failures = compare_pareto_documents(base, head)
        markdown = render_pareto_markdown(rows, failures)
    elif "pareto-front" in (base_suite, head_suite):
        rows, failures = [], [
            f"suite mismatch: base is {base_suite!r}, head is {head_suite!r}"
        ]
        markdown = render_pareto_markdown(rows, failures)
    elif {base_suite, head_suite} == {"scaling"}:
        rows, failures = compare_scaling_documents(
            base,
            head,
            max_runtime_ratio=args.max_runtime_ratio,
            runtime_floor=args.runtime_floor,
            gap_tolerance=args.gap_tolerance,
        )
        markdown = render_scaling_markdown(rows, failures)
    elif "scaling" in (base_suite, head_suite):
        rows, failures = [], [
            f"suite mismatch: base is {base_suite!r}, head is {head_suite!r}"
        ]
        markdown = render_scaling_markdown(rows, failures)
    else:
        rows, failures = compare_documents(
            base,
            head,
            max_runtime_ratio=args.max_runtime_ratio,
            runtime_floor=args.runtime_floor,
        )
        markdown = render_markdown(rows, failures)
    print(markdown)
    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(markdown)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
