"""One-call cost-vs-SNR Pareto sweeps with warm-started search state.

The paper's experiments trade hardware cost against output SNR one floor
at a time; :func:`pareto_front` runs the whole trade-off curve in one
call.  Floors are swept **tightest first**, each by a
:meth:`~repro.optimize.problem.OptimizationProblem.rescoped` view of the
caller's problem.  The views share one search state with it — the
evaluation cache, adjoint gains, incremental/batched engines and
counters — so every floor reuses the work of the earlier ones, and the
caller's problem is left warm even by an interrupted sweep.  The
previous floor's solution seeds the next search as a ``warm_start``.
Because a design feasible at a tight floor stays feasible at every
looser one, each point starts from a known-feasible design at most as
expensive as its predecessor — the returned curve is monotone (cost
non-increasing as the floor relaxes) *by construction*, not by luck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import OptimizationError
from repro.optimize.result import OptimizationResult

__all__ = ["ParetoPoint", "ParetoFront", "pareto_front"]


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the trade-off curve: a floor and the design that met it."""

    snr_floor_db: float
    cost: float
    snr_db: float
    feasible: bool
    total_bits: int
    analyzer_calls: int
    runtime_s: float
    word_lengths: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return {
            "snr_floor_db": self.snr_floor_db,
            "cost": self.cost,
            "snr_db": self.snr_db,
            "feasible": self.feasible,
            "total_bits": self.total_bits,
            "analyzer_calls": self.analyzer_calls,
            "runtime_s": self.runtime_s,
            "word_lengths": dict(self.word_lengths),
        }


@dataclass
class ParetoFront:
    """A swept cost-vs-SNR curve, ordered loosest floor first.

    ``points`` are sorted by ascending SNR floor (the natural plotting
    order); ``results`` holds the full per-floor
    :class:`~repro.optimize.result.OptimizationResult` objects in the
    same order for callers that want traces.
    """

    circuit: str
    strategy: str
    method: str
    points: List[ParetoPoint] = field(default_factory=list)
    results: List[OptimizationResult] = field(default_factory=list)

    def is_monotone(self) -> bool:
        """True when cost never increases as the SNR floor relaxes.

        Only feasible points participate: an infeasible floor has no
        design to compare.  An empty or single-point curve is monotone.
        """
        feasible = [p for p in self.points if p.feasible]
        # points are ordered loosest floor first, so walking the list
        # tightens the floor — cost must be non-decreasing along it.
        return all(
            earlier.cost <= later.cost
            for earlier, later in zip(feasible, feasible[1:])
        )

    @property
    def feasible_points(self) -> List[ParetoPoint]:
        """The points whose floor was actually met."""
        return [p for p in self.points if p.feasible]

    def to_dict(self, include_traces: bool = False) -> dict:
        """JSON-serializable view (optionally with full per-floor traces)."""
        doc = {
            "circuit": self.circuit,
            "strategy": self.strategy,
            "method": self.method,
            "monotone": self.is_monotone(),
            "points": [point.to_dict() for point in self.points],
        }
        if include_traces:
            doc["results"] = [result.to_dict() for result in self.results]
        return doc

    def summary(self) -> str:
        """One-line human-readable summary."""
        feasible = self.feasible_points
        if not feasible:
            return f"{self.circuit}/{self.strategy}: no feasible Pareto points"
        lo, hi = feasible[0], feasible[-1]
        verdict = "monotone" if self.is_monotone() else "NON-MONOTONE"
        return (
            f"{self.circuit}/{self.strategy}: {len(feasible)}/{len(self.points)} "
            f"floors feasible, cost {lo.cost:.1f} @ {lo.snr_floor_db:.0f}dB -> "
            f"{hi.cost:.1f} @ {hi.snr_floor_db:.0f}dB [{verdict}]"
        )


def _floor_key(floor: float) -> str:
    """Checkpoint key of one floor: ``repr`` round-trips the exact float."""
    return repr(float(floor))


def _resume_completed(checkpoint, unique_floors: Sequence[float]) -> Dict[str, dict]:
    """Load the per-floor records of an interrupted sweep, if any."""
    state = checkpoint.load() if checkpoint is not None else None
    if not state or state.get("strategy") != "pareto":
        return {}
    completed = state.get("completed") or {}
    wanted = {_floor_key(f) for f in unique_floors}
    return {key: record for key, record in completed.items() if key in wanted}


def pareto_front(
    problem,
    floors: Sequence[float],
    strategy: str | None = None,
    checkpoint=None,
    **strategy_options: object,
) -> ParetoFront:
    """Sweep ``problem`` over ``floors`` and return the trade-off curve.

    ``problem`` is an :class:`~repro.optimize.problem.OptimizationProblem`
    whose own ``snr_floor_db`` is ignored in favor of each floor in turn;
    ``strategy`` defaults to the problem config's strategy.  Floors are
    deduplicated and internally swept tightest-first (see module
    docstring); the returned front lists them loosest-first.

    ``checkpoint`` (a :class:`~repro.jobs.checkpoint.SearchCheckpoint`)
    persists each completed floor; a resumed sweep re-optimizes only the
    floors missing from the snapshot, warm-started from the loosest
    completed design exactly as the uninterrupted sweep would have been.
    Resumed designs are bit-identical; ``analyzer_calls``/``runtime_s``
    of resumed floors reflect the original run.
    """
    from repro.noisemodel.assignment import WordLengthAssignment
    from repro.optimize.strategies import get_optimizer

    unique_floors = sorted({float(f) for f in floors}, reverse=True)
    if not unique_floors:
        raise OptimizationError("pareto_front needs at least one SNR floor")
    if strategy is None:
        strategy = problem.config.strategy
    optimizer = get_optimizer(strategy, **strategy_options)
    front = ParetoFront(circuit=problem.name, strategy=str(strategy), method=problem.method)
    completed = _resume_completed(checkpoint, unique_floors)
    warm_start = None
    for floor in unique_floors:
        record = completed.get(_floor_key(floor))
        if record is not None:
            point = ParetoPoint(**{**record["point"], "word_lengths": dict(record["point"].get("word_lengths", {}))})
            assignment = (
                WordLengthAssignment.from_doc(record["assignment"])
                if record.get("assignment") is not None
                else None
            )
            result = OptimizationResult(
                strategy=str(strategy),
                method=problem.method,
                circuit=problem.name,
                snr_floor_db=floor,
                margin_db=problem.margin_db,
                assignment=assignment,
                cost=point.cost,
                snr_db=point.snr_db,
                feasible=point.feasible,
                analyzer_calls=point.analyzer_calls,
                runtime_s=point.runtime_s,
                extra={"resumed": True},
            )
        else:
            result = optimizer.optimize(problem.rescoped(floor), warm_start=warm_start)
            point = ParetoPoint(
                snr_floor_db=floor,
                cost=result.cost,
                snr_db=result.snr_db,
                feasible=result.feasible,
                total_bits=result.total_bits,
                analyzer_calls=result.analyzer_calls,
                runtime_s=result.runtime_s,
                word_lengths=(
                    dict(result.assignment.word_lengths())
                    if result.assignment is not None
                    else {}
                ),
            )
            if checkpoint is not None:
                completed[_floor_key(floor)] = {
                    "point": point.to_dict(),
                    "assignment": (
                        result.assignment.to_doc()
                        if result.assignment is not None
                        else None
                    ),
                }
                checkpoint.save({"strategy": "pareto", "completed": completed})
        front.results.append(result)
        front.points.append(point)
        if result.feasible and result.assignment is not None:
            warm_start = result.assignment
    front.points.reverse()
    front.results.reverse()
    if checkpoint is not None:
        checkpoint.clear()
    return front
