"""Word-length search strategies: uniform sweep, greedy descent, annealing.

All strategies answer the same question — the cheapest per-node
word-length assignment whose analyzed output SNR clears the floor — and
return the same :class:`~repro.optimize.result.OptimizationResult`:

* :class:`UniformSweepOptimizer` is the paper's baseline: one shared word
  length everywhere, increased until feasible.  Because hardware cost is
  monotone in word length, the first feasible sweep point is also the
  cheapest feasible uniform design.
* :class:`GreedyBitStealingOptimizer` starts from a feasible uniform
  design (optionally with a little headroom above the cheapest one) and
  repeatedly shaves the fractional bit with the best cost-saved /
  noise-added ratio.  Candidates are *ranked* with the problem's
  precomputed adjoint noise gains — no analyzer call per candidate — and
  only the chosen shave is re-analyzed; an infeasible shave blocks that
  node for the rest of the descent (noise only grows, so a failed shave
  can never become feasible later).  Each shave's price is kept across
  steps and recomputed only after an accepted move changes a format it
  reads, so a step re-prices the move's neighbourhood, not every node.
* :class:`SimulatedAnnealingOptimizer` performs Metropolis moves (+-1
  fractional bit on a random node) over an energy mixing cost with an
  SNR-deficit penalty, keeping the best feasible design it visits.

When the problem's :class:`~repro.config.OptimizeConfig` selects the
``batched`` engine, greedy's inner loop changes shape without changing
its contract: it prices *every* unblocked one-bit shave in a single
vectorized pass (:meth:`OptimizationProblem.price_moves`) and ranks by
**exact** noise added instead of the adjoint-gain estimate.  Accepted
designs are always confirmed through :meth:`OptimizationProblem.evaluate`,
the one candidate evaluator (the problem's incremental engine), so
traces and results stay grounded in it whichever engine ranked them.
Strategies follow :attr:`OptimizationProblem.engine`; whether a broken
batched engine degrades to the incremental path or aborts the search is
the problem's decision (``engine_fallback``).

Every strategy also accepts a ``warm_start`` assignment — Pareto sweeps
hand the previous floor's solution to the next one so most of the
descent is already paid for.
"""

from __future__ import annotations

import abc
import heapq
import math
import time
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import NoiseModelError, OptimizationError
from repro.jobs.checkpoint import SearchCheckpoint
from repro.noisemodel.assignment import WordLengthAssignment, changed_formats
from repro.optimize.problem import DesignEvaluation, OptimizationProblem
from repro.optimize.result import IterationRecord, OptimizationResult

__all__ = [
    "WordLengthOptimizer",
    "UniformSweepOptimizer",
    "GreedyBitStealingOptimizer",
    "SimulatedAnnealingOptimizer",
    "OPTIMIZERS",
    "get_optimizer",
]


def _record(
    trace: List[IterationRecord],
    problem: OptimizationProblem,
    action: str,
    evaluation: DesignEvaluation,
    accepted: bool,
) -> None:
    trace.append(
        IterationRecord(
            index=len(trace),
            action=action,
            cost=evaluation.cost,
            snr_db=evaluation.snr_db,
            feasible=evaluation.feasible,
            accepted=accepted,
            analyzer_calls=problem.analyzer_calls,
            cache_hits=problem.evaluate_cache_hits,
        )
    )


def _sweep_uniform(
    problem: OptimizationProblem, trace: List[IterationRecord]
) -> Tuple[DesignEvaluation | None, int | None, DesignEvaluation | None]:
    """Scan uniform word lengths upward; first feasible one is cheapest.

    Returns ``(feasible_eval, word_length, last_eval)``; the first two are
    ``None`` when no uniform design up to ``max_word_length`` is feasible.
    """
    last: DesignEvaluation | None = None
    for word_length in range(problem.min_word_length, problem.max_word_length + 1):
        try:
            evaluation = problem.evaluate_uniform(word_length)
        except NoiseModelError:
            continue
        last = evaluation
        _record(trace, problem, f"uniform W={word_length}", evaluation, evaluation.feasible)
        if evaluation.feasible:
            return evaluation, word_length, evaluation
    return None, None, last


def _evaluate_warm_start(
    problem: OptimizationProblem,
    warm_start: WordLengthAssignment | None,
    trace: List[IterationRecord],
) -> DesignEvaluation | None:
    """Evaluate a Pareto warm start; ``None`` when absent or infeasible."""
    if warm_start is None:
        return None
    try:
        evaluation = problem.evaluate(warm_start)
    except NoiseModelError:
        return None
    _record(trace, problem, "warm start", evaluation, evaluation.feasible)
    return evaluation if evaluation.feasible else None


class WordLengthOptimizer(abc.ABC):
    """Common interface: ``optimize(problem) -> OptimizationResult``."""

    name: str = "abstract"

    def optimize(
        self,
        problem: OptimizationProblem,
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> OptimizationResult:
        """Run the search, timing it and accounting analyzer calls.

        ``warm_start`` seeds the search with a known design (typically
        the previous point of a Pareto sweep); a strategy uses it when
        it is feasible under this problem's floor and never returns a
        design worse than the best feasible one it saw.

        ``checkpoint`` (a :class:`~repro.jobs.checkpoint.SearchCheckpoint`)
        makes the search crash-safe: strategies that support it persist
        their state as they go (greedy after every accepted shave,
        annealing periodically), an interrupted run resumes from the
        snapshot instead of from scratch, and a run that completes
        clears the snapshot.  The resumed *design* is identical to the
        uninterrupted one; trace lengths and analyzer-call counts may
        differ (in-memory caches do not survive a crash).
        """
        trace: List[IterationRecord] = []
        calls_before = problem.analyzer_calls
        hits_before = problem.evaluate_cache_hits
        started = time.perf_counter()
        best, baseline_cost, baseline_w = self._search(problem, trace, warm_start, checkpoint)
        runtime = time.perf_counter() - started
        if checkpoint is not None:
            checkpoint.clear()
        extra = {"evaluate_cache_hits": float(problem.evaluate_cache_hits - hits_before)}
        if best is None:
            return OptimizationResult(
                strategy=self.name,
                method=problem.method,
                circuit=problem.name,
                snr_floor_db=problem.snr_floor_db,
                margin_db=problem.margin_db,
                assignment=None,
                cost=float("inf"),
                snr_db=float("-inf"),
                feasible=False,
                baseline_cost=baseline_cost,
                baseline_word_length=baseline_w,
                iterations=trace,
                analyzer_calls=problem.analyzer_calls - calls_before,
                runtime_s=runtime,
                extra=extra,
            )
        return OptimizationResult(
            strategy=self.name,
            method=problem.method,
            circuit=problem.name,
            snr_floor_db=problem.snr_floor_db,
            margin_db=problem.margin_db,
            assignment=best.assignment,
            cost=best.cost,
            snr_db=best.snr_db,
            feasible=best.feasible,
            baseline_cost=baseline_cost,
            baseline_word_length=baseline_w,
            iterations=trace,
            analyzer_calls=problem.analyzer_calls - calls_before,
            runtime_s=runtime,
            extra=extra,
        )

    @abc.abstractmethod
    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        """Return ``(best_eval, baseline_cost, baseline_word_length)``."""


class UniformSweepOptimizer(WordLengthOptimizer):
    """The paper's baseline: one word length everywhere, swept upward."""

    name = "uniform"

    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        # warm_start intentionally unused: the sweep is already minimal
        # over its (one-dimensional) search space.  checkpoint likewise:
        # the sweep re-derives in seconds, there is no state worth saving.
        evaluation, word_length, _last = _sweep_uniform(problem, trace)
        if evaluation is None:
            return None, None, None
        return evaluation, evaluation.cost, word_length


class _ShaveRanking:
    """Every tunable node's one-bit shave, priced against one current design.

    A descent keeps one ranking.  Each node's entry — ``(new_frac, saved)``,
    or ``None`` when the node sits at its precision floor or the shave
    saves nothing — and its scalar score are computed on first use with
    exactly the arithmetic of a from-scratch ranking, then kept.  When
    the current design moves, :meth:`sync` diffs the old and new designs
    (coverage widening included) and drops only the entries of the
    tunable nodes whose shave price reads a changed format (see
    :meth:`OptimizationProblem.pricing_neighbourhood`); every other entry
    would be recomputed bit for bit, so it stays.

    :meth:`best` keeps the scalar argmax in a heap of ``(-score, tunable
    index)`` entries.  Only the nodes :meth:`sync` dropped (and every
    node at first) are scored and pushed again; entries of blocked nodes
    and entries whose score was dropped are popped when they surface.
    """

    def __init__(self, problem: OptimizationProblem, assignment: WordLengthAssignment) -> None:
        self.problem = problem
        self.assignment = assignment
        self._shaves: Dict[str, Tuple[int, float] | None] = {}
        self._scores: Dict[str, float] = {}
        self._index = {node: index for index, node in enumerate(problem.tunable)}
        #: Nodes whose score has no heap entry yet, in tunable order at first.
        self._unranked: Dict[str, None] = dict.fromkeys(problem.tunable)
        self._heap: List[Tuple[float, int]] = []

    def sync(self, assignment: WordLengthAssignment) -> None:
        """Make ``assignment`` the design the entries are priced against."""
        neighbourhood = self.problem.pricing_neighbourhood()  # raises if the graph changed
        for node in changed_formats(assignment, self.assignment):
            for reader in neighbourhood[node][1]:
                self._shaves.pop(reader, None)
                self._scores.pop(reader, None)
                self._unranked[reader] = None
        self.assignment = assignment

    def _shave(self, node: str) -> Tuple[int, float] | None:
        try:
            return self._shaves[node]
        except KeyError:
            pass
        problem = self.problem
        current = self.assignment
        entry = None
        fmt = current.formats.get(node)
        if fmt is not None and fmt.fractional_bits > problem.min_fractional_bits:
            new_frac = fmt.fractional_bits - 1
            shaved = current.with_fractional_bits(node, new_frac)
            saved = -problem.cost_model.reprice(
                problem.graph,
                current,
                shaved,
                problem.pricing_neighbourhood()[node][0],
            )
            if saved > 0.0:
                entry = (new_frac, saved)
        self._shaves[node] = entry
        return entry

    def shaves(self, blocked: set[str]) -> Iterator[Tuple[str, int, float]]:
        """``(node, new_frac, saved)`` of every unblocked saving shave, in tunable order."""
        for node in self.problem.tunable:
            if node in blocked:
                continue
            entry = self._shave(node)
            if entry is not None:
                yield node, entry[0], entry[1]

    def score(self, node: str, new_frac: int, saved: float) -> float:
        """Cost saved per predicted noise added by one shave."""
        score = self._scores.get(node)
        if score is None:
            added = self.problem.predicted_noise_increase(self.assignment, node, new_frac)
            score = saved / max(added, 1e-30)
            self._scores[node] = score
        return score

    def best(self, blocked: set[str]) -> Tuple[str, int] | None:
        """The unblocked shave of highest :meth:`score`, the first in tunable order on ties."""
        heap = self._heap
        for node in self._unranked:
            if node in blocked:
                continue
            entry = self._shave(node)
            if entry is not None:
                heapq.heappush(heap, (-self.score(node, *entry), self._index[node]))
        self._unranked.clear()
        tunable = self.problem.tunable
        while heap:
            negated, index = heap[0]
            node = tunable[index]
            if node in blocked or self._scores.get(node) != -negated:
                heapq.heappop(heap)
                continue
            return node, self._shaves[node][0]
        return None


class GreedyBitStealingOptimizer(WordLengthOptimizer):
    """Feasible-start descent shaving the best cost/noise fractional bit.

    Parameters
    ----------
    headroom:
        Extra uniform bits above the cheapest feasible word length to
        start the descent from (a second descent always starts at the
        cheapest feasible uniform itself; the better outcome wins).  More
        headroom gives the shaver more SNR slack to trade for area.
    max_iterations:
        Hard cap on descent steps (guards pathological problems).
    """

    name = "greedy"

    def __init__(self, headroom: int = 2, max_iterations: int = 400) -> None:
        if headroom < 0:
            raise OptimizationError(f"headroom must be >= 0, got {headroom}")
        self.headroom = int(headroom)
        self.max_iterations = int(max_iterations)

    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        uniform_eval, uniform_w, _last = _sweep_uniform(problem, trace)
        if uniform_eval is None or uniform_w is None:
            return None, None, None

        starts: List[Tuple[str, DesignEvaluation]] = [(f"W{uniform_w}", uniform_eval)]
        headroom_w = min(uniform_w + self.headroom, problem.max_word_length)
        if headroom_w != uniform_w:
            evaluation = problem.evaluate_uniform(headroom_w)
            _record(trace, problem, f"headroom start W={headroom_w}", evaluation, True)
            starts.append((f"W{headroom_w}", evaluation))
        warm_eval = _evaluate_warm_start(problem, warm_start, trace)
        if warm_eval is not None:
            starts.append(("warm", warm_eval))

        # A snapshot replays the interrupted descent from its last
        # accepted shave (same blocked set, so the same moves follow)
        # and restores the best design of every descent already done —
        # the resumed search returns the design an uninterrupted run
        # would have.
        start_index = 0
        resume_eval: DesignEvaluation | None = None
        resume_blocked: set[str] = set()
        best = uniform_eval
        state = checkpoint.load() if checkpoint is not None else None
        if state and state.get("strategy") == self.name:
            start_index = int(state.get("start_index", 0))
            if state.get("best") is not None:
                best_eval = problem.evaluate(WordLengthAssignment.from_doc(state["best"]))
                _record(trace, problem, "resume best", best_eval, best_eval.feasible)
                if best_eval.feasible and best_eval.cost < best.cost:
                    best = best_eval
            if state.get("assignment") is not None:
                resume_eval = problem.evaluate(
                    WordLengthAssignment.from_doc(state["assignment"])
                )
                resume_blocked = set(state.get("blocked", ()))
                _record(trace, problem, "resume descent", resume_eval, resume_eval.feasible)

        for index, (tag, start) in enumerate(starts):
            if index < start_index:
                continue
            blocked: set[str] = set()
            if index == start_index and resume_eval is not None and resume_eval.feasible:
                start = resume_eval
                blocked = set(resume_blocked)
            final = self._descend(
                problem, start, trace, tag,
                blocked=blocked, checkpoint=checkpoint, start_index=index, best=best,
            )
            if final.feasible and final.cost < best.cost:
                best = final
            if checkpoint is not None:
                checkpoint.save(
                    {
                        "strategy": self.name,
                        "start_index": index + 1,
                        "assignment": None,
                        "blocked": [],
                        "best": best.assignment.to_doc() if best.feasible else None,
                    }
                )
        return best, uniform_eval.cost, uniform_w

    def _descend(
        self,
        problem: OptimizationProblem,
        start: DesignEvaluation,
        trace: List[IterationRecord],
        tag: str,
        blocked: set[str] | None = None,
        checkpoint: SearchCheckpoint | None = None,
        start_index: int = 0,
        best: DesignEvaluation | None = None,
    ) -> DesignEvaluation:
        current = start
        blocked = set() if blocked is None else blocked
        best_doc = best.assignment.to_doc() if best is not None and best.feasible else None
        ranking = _ShaveRanking(problem, current.assignment)
        problem.notify_accepted(current.assignment)
        for _step in range(self.max_iterations):
            candidate = None
            if problem.engine == "batched":
                candidate = self._best_candidate_batched(problem, current, blocked, ranking)
            if problem.engine != "batched":  # never batched, or degraded just now
                candidate = self._best_candidate(current, blocked, ranking)
            if candidate is None:
                break
            node, new_frac = candidate
            shaved = current.assignment.with_fractional_bits(node, new_frac)
            evaluation = problem.evaluate(shaved)
            action = f"[{tag}] shave {node} -> {new_frac} frac"
            # evaluate() may have coverage-widened the shaved assignment,
            # which can cost more than the shave saved — accept only
            # feasible moves that actually got cheaper.
            if evaluation.feasible and evaluation.cost < current.cost:
                _record(trace, problem, action, evaluation, True)
                current = evaluation
                problem.notify_accepted(current.assignment)
                if checkpoint is not None:
                    checkpoint.save(
                        {
                            "strategy": self.name,
                            "start_index": start_index,
                            "tag": tag,
                            "assignment": current.assignment.to_doc(),
                            "blocked": sorted(blocked),
                            "best": best_doc,
                        }
                    )
            else:
                _record(trace, problem, action, evaluation, False)
                blocked.add(node)
        return current

    def _best_candidate(
        self,
        current: DesignEvaluation,
        blocked: set[str],
        ranking: _ShaveRanking,
    ) -> Tuple[str, int] | None:
        """Rank one-bit shaves by cost saved per predicted noise added."""
        ranking.sync(current.assignment)
        return ranking.best(blocked)

    def _best_candidate_batched(
        self,
        problem: OptimizationProblem,
        current: DesignEvaluation,
        blocked: set[str],
        ranking: _ShaveRanking,
    ) -> Tuple[str, int] | None:
        """One vectorized pass pricing *every* unblocked one-bit shave.

        Where the scalar path ranks by the adjoint-gain *estimate* of the
        noise added and discovers infeasibility one evaluation at a time,
        this prices all shaves exactly (:meth:`OptimizationProblem.price_moves`)
        and blocks every shave the floor already rejects — noise only
        grows as the descent progresses, so a rejected shave stays
        rejected (the same monotonicity argument the scalar path uses,
        applied to the whole frontier at once).  The cost savings come
        from ``ranking``.
        """
        ranking.sync(current.assignment)
        moves: List[Tuple[str, int]] = []
        savings: List[float] = []
        for node, new_frac, saved in ranking.shaves(blocked):
            moves.append((node, new_frac))
            savings.append(saved)
        if not moves:
            return None
        noise = problem.price_moves(current.assignment, moves)
        if noise is None:  # the problem degraded off the batched engine
            return None
        threshold = problem.snr_floor_db + problem.margin_db
        best: Tuple[str, int] | None = None
        best_score = 0.0
        for (node, new_frac), saved, noise_power in zip(moves, savings, noise):
            if problem._snr_db(float(noise_power)) < threshold:
                blocked.add(node)
                continue
            added = max(float(noise_power) - current.noise_power, 0.0)
            score = saved / max(added, 1e-30)
            if best is None or score > best_score:
                best, best_score = (node, new_frac), score
        return best


class SimulatedAnnealingOptimizer(WordLengthOptimizer):
    """Metropolis search over per-node fractional bits.

    Energy is ``cost + penalty * SNR-deficit`` so infeasible states are
    strongly discouraged but still traversable at high temperature.  The
    best *feasible* design ever visited is returned (never worse than the
    cheapest feasible uniform, which seeds the search).
    """

    name = "anneal"

    def __init__(
        self,
        iterations: int = 150,
        seed: int = 0,
        cooling: float = 0.95,
        headroom: int = 0,
        initial_temperature_scale: float = 0.05,
        downhill_bias: float = 0.65,
    ) -> None:
        if iterations < 1:
            raise OptimizationError(f"iterations must be >= 1, got {iterations}")
        if not (0.0 < cooling <= 1.0):
            raise OptimizationError(f"cooling must be in (0, 1], got {cooling}")
        if not (0.0 <= downhill_bias <= 1.0):
            raise OptimizationError(f"downhill_bias must be in [0, 1], got {downhill_bias}")
        self.iterations = int(iterations)
        self.seed = seed
        self.cooling = float(cooling)
        self.headroom = int(headroom)
        self.initial_temperature_scale = float(initial_temperature_scale)
        self.downhill_bias = float(downhill_bias)
        #: How many Metropolis steps between checkpoint snapshots.
        self.checkpoint_every = 20

    def _energy(
        self, problem: OptimizationProblem, evaluation: DesignEvaluation, scale: float
    ) -> float:
        deficit = max(0.0, problem.snr_floor_db + problem.margin_db - evaluation.snr_db)
        return evaluation.cost + scale * deficit

    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        uniform_eval, uniform_w, _last = _sweep_uniform(problem, trace)
        if uniform_eval is None or uniform_w is None:
            return None, None, None

        rng = np.random.default_rng(self.seed)
        start_w = min(uniform_w + self.headroom, problem.max_word_length)
        if start_w != uniform_w:
            current = problem.evaluate_uniform(start_w)
            _record(trace, problem, f"anneal start W={start_w}", current, True)
        else:
            current = uniform_eval
        warm_eval = _evaluate_warm_start(problem, warm_start, trace)
        if warm_eval is not None and warm_eval.cost < current.cost:
            current = warm_eval
        best = uniform_eval if uniform_eval.cost <= current.cost else current
        if not best.feasible:  # pragma: no cover - both seeds are feasible
            best = uniform_eval
        if warm_eval is not None and warm_eval.cost < best.cost:
            best = warm_eval

        # A snapshot captures the full Metropolis state — step, temperature,
        # current/best designs and the PCG64 generator state — so a resumed
        # chain draws the exact same proposal sequence an uninterrupted run
        # would have.
        start_step = 0
        state = checkpoint.load() if checkpoint is not None else None
        if state and state.get("strategy") == self.name:
            start_step = int(state.get("step", 0))
            temperature_override = float(state["temperature"])
            current = problem.evaluate(WordLengthAssignment.from_doc(state["current"]))
            _record(trace, problem, "resume current", current, current.feasible)
            resumed_best = problem.evaluate(WordLengthAssignment.from_doc(state["best"]))
            _record(trace, problem, "resume best", resumed_best, resumed_best.feasible)
            if resumed_best.feasible:
                best = resumed_best
            rng.bit_generator.state = state["rng"]
        else:
            temperature_override = None

        # 1 dB of SNR deficit costs as much as the whole uniform design:
        # high temperature can wander, low temperature cannot stay infeasible.
        penalty_scale = uniform_eval.cost
        temperature = max(self.initial_temperature_scale * current.cost, 1e-9)
        if temperature_override is not None:
            temperature = temperature_override
        tunable = [
            node
            for node in problem.tunable
            if current.assignment.formats.get(node) is not None
        ]
        if not tunable:
            return best, uniform_eval.cost, uniform_w

        current_energy = self._energy(problem, current, penalty_scale)
        problem.notify_accepted(current.assignment)
        for _step in range(start_step, self.iterations):
            node = tunable[int(rng.integers(len(tunable)))]
            fmt = current.assignment.format_of(node)
            step = -1 if rng.random() < self.downhill_bias else +1
            new_frac = fmt.fractional_bits + step
            new_frac = max(problem.min_fractional_bits, new_frac)
            # clamp against the format's *actual* integer bits (coverage
            # widening may have added some), so the word cap truly holds
            new_frac = min(problem.max_word_length - fmt.integer_bits, new_frac)
            if new_frac == fmt.fractional_bits:
                continue
            candidate = problem.evaluate(
                current.assignment.with_fractional_bits(node, new_frac)
            )
            candidate_energy = self._energy(problem, candidate, penalty_scale)
            delta = candidate_energy - current_energy
            accept = delta <= 0.0 or rng.random() < math.exp(-delta / temperature)
            _record(
                trace,
                problem,
                f"move {node} -> {new_frac} frac (T={temperature:.2f})",
                candidate,
                accept,
            )
            if accept:
                current, current_energy = candidate, candidate_energy
                problem.notify_accepted(current.assignment)
                if current.feasible and current.cost < best.cost:
                    best = current
            temperature = max(temperature * self.cooling, 1e-9)
            if checkpoint is not None and (_step + 1) % self.checkpoint_every == 0:
                checkpoint.save(
                    {
                        "strategy": self.name,
                        "step": _step + 1,
                        "temperature": temperature,
                        "current": current.assignment.to_doc(),
                        "best": best.assignment.to_doc(),
                        "rng": rng.bit_generator.state,
                    }
                )
        return best, uniform_eval.cost, uniform_w


#: Strategy registry, keyed by CLI-friendly names.
OPTIMIZERS: Dict[str, type[WordLengthOptimizer]] = {
    UniformSweepOptimizer.name: UniformSweepOptimizer,
    GreedyBitStealingOptimizer.name: GreedyBitStealingOptimizer,
    SimulatedAnnealingOptimizer.name: SimulatedAnnealingOptimizer,
}


def get_optimizer(name: str, **options: object) -> WordLengthOptimizer:
    """Instantiate a strategy by registry name."""
    if str(name).lower() == "decomposed" and "decomposed" not in OPTIMIZERS:
        import repro.optimize.decomposed  # noqa: F401 - registers itself
    try:
        factory = OPTIMIZERS[str(name).lower()]
    except KeyError as exc:
        raise OptimizationError(
            f"unknown optimization strategy {name!r}; available: {', '.join(OPTIMIZERS)}"
        ) from exc
    return factory(**options)  # type: ignore[arg-type]
