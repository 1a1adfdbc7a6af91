"""Decomposed word-length optimization for large graphs.

Whole-graph strategies probe one node at a time against an analyzer of
the *entire* circuit, which stops scaling somewhere around a few hundred
nodes.  :class:`DecomposedOptimizer` follows the consensus-splitting
template of Xie & Shanbhag's tractable ADMM schemes for nonconvex
ℓ0-style resource allocation: partition the problem, solve cheap local
subproblems, and coordinate them through a small set of shared variables
— here the fixed-point formats of the signals crossing partition cuts.

One search proceeds in three tiers:

1. **Partition.**  The (typically deep-unrolled) DFG is split by
   :func:`~repro.dfg.partition.partition_graph` into balanced pieces
   with a small edge cut, and each piece is materialized as a standalone
   circuit by :func:`~repro.dfg.partition.extract_partition` (cut inputs
   become INPUT replicas ranged by the whole-graph range analysis).

2. **Local solves, sharded.**  Each partition becomes an independent
   :class:`~repro.optimize.problem.OptimizationProblem` with a *local*
   SNR floor derived from its share of the global noise budget
   (proportional to the partition's aggregate adjoint noise gain), and
   is solved by an existing whole-graph strategy (greedy by default).
   Subproblems run as :class:`~repro.jobs.spec.JobSpec`s on a
   :class:`~repro.jobs.runner.JobRunner`, inheriting its retries,
   timeouts and deterministic per-job seeds.

3. **Consensus + global judgement.**  Merged per-node formats take the
   owning partition's proposal; every signal visible to several
   partitions (cut signals, replicated inputs/constants) takes the
   **max** fractional precision any of them asked for — a conservative
   consensus projection rather than a dual average, which suits a
   monotone noise model: extra bits never hurt feasibility.  The merged
   design is then judged by ONE whole-graph ``problem.evaluate`` call —
   the same evaluator every other strategy trusts — so decomposition
   never weakens the feasibility guarantee.  On a miss the outer loop
   tightens every local budget by the measured SNR deficit and re-solves
   (consensus formats pinned into the replicas); with slack it relaxes
   budgets to claw back cost.  The uniform sweep provides both the
   baseline and a guaranteed-feasible fallback.

Crash safety: when given a :class:`~repro.jobs.checkpoint.SearchCheckpoint`,
the outer loop snapshots its full state (iteration index, budget scale,
consensus formats, incumbent design) after every ADMM iteration; a
killed search resumes mid-loop and lands on the bit-identical design.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Tuple

from repro.config import OptimizeConfig
from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.dfg.partition import (
    PartitionSubgraph,
    Partitioning,
    extract_partition,
    partition_graph,
)
from repro.errors import OptimizationError
from repro.intervals.interval import Interval, uniform_power
from repro.jobs.checkpoint import SearchCheckpoint
from repro.jobs.policy import RetryPolicy
from repro.jobs.runner import JobRunner
from repro.jobs.spec import JobSpec, derive_seed
from repro.noisemodel.assignment import WordLengthAssignment
from repro.optimize.problem import DesignEvaluation, OptimizationProblem
from repro.optimize.result import IterationRecord
from repro.optimize.strategies import (
    WordLengthOptimizer,
    _record,
    _sweep_uniform,
    get_optimizer,
)

__all__ = ["DecomposedOptimizer", "solve_partition_job"]

#: Default arithmetic-node count one partition should hold when the
#: partition count is sized automatically.
AUTO_NODES_PER_PARTITION = 150

#: Safety pad (dB) added on top of a measured SNR deficit when the outer
#: loop tightens partition budgets after an infeasible merge.
TIGHTEN_PAD_DB = 0.5

#: Minimum feasibility slack (dB) before a relaxation round is attempted.
RELAX_THRESHOLD_DB = 1.0

#: Initial conservatism pad (dB) applied to every local budget.  Local
#: models cannot see the quantization noise injected *at* cut signals by
#: downstream partitions, which costs the first merge a couple of dB in
#: practice; starting slightly tight makes round 0 usually feasible so
#: short outer budgets still end on a non-fallback design.
INITIAL_PAD_DB = 2.5

#: OUTPUT port name of the synthesized gain-weighted local objective.
OBJECTIVE_PORT = "__objective"

#: Smallest normalized combiner weight — keeps every cut signal's noise
#: visible to the local solver even when its global gain is tiny.
OBJECTIVE_WEIGHT_FLOOR = 1e-6

_WEIGHTLESS = (OpType.INPUT, OpType.CONST, OpType.OUTPUT)


def solve_partition_job(document: dict) -> dict:
    """Solve one partition subproblem; module-level for process workers.

    ``document`` is fully JSON-serializable (it also lands verbatim in
    job checkpoints): the subgraph, its input ranges, the designated
    output, the local :class:`~repro.config.OptimizeConfig` fields, the
    inner strategy + options, and the consensus formats to pin onto
    replica nodes.  Returns the proposed per-node fractional bits plus
    the local search outcome.
    """
    graph = DFG.from_dict(document["graph"])
    config = OptimizeConfig(**document["config"])
    problem = OptimizationProblem(
        graph,
        {name: tuple(bounds) for name, bounds in document["input_ranges"].items()},
        config=config,
        output=document["output"],
        name=graph.name,
    )
    inner = get_optimizer(document["inner"], **dict(document.get("inner_options") or {}))
    result = inner.optimize(problem)
    if result.assignment is not None:
        fractional = result.assignment.fractional_bits()
    else:
        # No locally feasible design even at max precision: propose max
        # precision and let the whole-graph judge arbitrate.
        fractional = problem.uniform(config.max_word_length).fractional_bits()
    for node, bits in dict(document.get("pinned") or {}).items():
        if node in fractional:
            fractional[node] = int(bits)
    return {
        "part": int(document["part"]),
        "fractional_bits": {name: int(bits) for name, bits in fractional.items()},
        "feasible": bool(result.feasible),
        "cost": float(result.cost),
        "snr_db": float(result.snr_db),
        "analyzer_calls": int(result.analyzer_calls),
    }


class DecomposedOptimizer(WordLengthOptimizer):
    """Partition / solve / reconcile — word-length search that scales.

    Parameters
    ----------
    partitions:
        Number of partitions.  ``None`` defers to the problem config's
        ``partitions`` field, and failing that sizes automatically to
        ~:data:`AUTO_NODES_PER_PARTITION` arithmetic nodes per piece.
    inner / inner_options:
        Registry name and constructor options of the strategy solving
        each subproblem (``greedy`` by default).
    outer_iterations:
        ADMM-style outer-loop budget (``None``: the config's value).
    workers / timeout_s / retries:
        Sharding of the per-partition solves across the jobs runner:
        worker processes, per-subproblem timeout, and attempts per
        subproblem (``1`` disables retries).
    seed:
        Base seed folded into every subproblem's derived job seed.
    """

    name = "decomposed"

    def __init__(
        self,
        partitions: int | None = None,
        inner: str = "greedy",
        inner_options: Mapping[str, object] | None = None,
        outer_iterations: int | None = None,
        workers: int = 1,
        timeout_s: float | None = None,
        retries: int = 1,
        seed: int = 0,
    ) -> None:
        if partitions is not None and partitions < 1:
            raise OptimizationError(f"partitions must be >= 1, got {partitions}")
        if outer_iterations is not None and outer_iterations < 1:
            raise OptimizationError(
                f"outer_iterations must be >= 1, got {outer_iterations}"
            )
        if inner == self.name:
            raise OptimizationError("decomposed cannot use itself as the inner solver")
        if retries < 1:
            raise OptimizationError(f"retries must be >= 1, got {retries}")
        self.partitions = partitions
        self.inner = str(inner)
        self.inner_options = dict(inner_options or {})
        self.outer_iterations = outer_iterations
        self.workers = int(workers)
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.seed = int(seed)
        # fail fast on an unknown inner strategy or option, before any job runs
        get_optimizer(self.inner, **self.inner_options)

    # ------------------------------------------------------------------ #
    # plumbing helpers
    # ------------------------------------------------------------------ #
    def _resolve_parts(self, problem: OptimizationProblem) -> int:
        weighted = sum(
            1 for node in problem.graph.nodes() if node.op not in _WEIGHTLESS
        )
        requested = self.partitions
        if requested is None:
            requested = problem.config.partitions
        if requested is None:
            requested = max(1, round(weighted / AUTO_NODES_PER_PARTITION))
        return max(1, min(int(requested), weighted))

    def _runner(self) -> JobRunner:
        return JobRunner(
            workers=self.workers,
            timeout_s=self.timeout_s,
            retry=RetryPolicy(max_attempts=self.retries),
        )

    def _local_config(self, problem: OptimizationProblem, floor_db: float) -> dict:
        """Config fields of one subproblem, as a JSON-able dict."""
        config = problem.config.replace(
            strategy=self.inner,
            snr_floor_db=float(floor_db),
            margin_db=0.0,
            partitions=None,
            mc_workers=None,
        )
        return dataclasses.asdict(config)

    @staticmethod
    def _partition_weights(
        problem: OptimizationProblem, partitioning: Partitioning
    ) -> List[float]:
        """Aggregate squared adjoint gain per partition (budget shares)."""
        weights = [0.0] * partitioning.parts
        for node in problem.graph.nodes():
            if node.op in _WEIGHTLESS:
                continue
            weights[partitioning.assignment[node.name]] += problem.noise_gain(
                node.name
            )
        total = sum(weights)
        if total <= 0.0:
            return [1.0 / partitioning.parts] * partitioning.parts
        return [max(weight, total * 1e-9) / total for weight in weights]

    @staticmethod
    def _attach_objective(
        problem: OptimizationProblem, subgraph: PartitionSubgraph
    ) -> Tuple[float, float]:
        """Graft a gain-weighted objective output onto the subgraph.

        A partition leaks noise into the rest of the circuit through
        *every* cut signal, each amplified by that signal's global
        adjoint gain.  Optimizing against any single port lets the inner
        solver strip bits from every node outside that port's cone, so
        the merged design misses the global floor by tens of dB.  The
        synthesized objective ``sum_i w_i * s_i`` with
        ``w_i ∝ sqrt(noise_gain(s_i))`` makes local output noise mirror
        the partition's true global noise contribution (up to path
        cross-terms).  Weights are normalized so the largest is 1 (keeps
        local ranges tame); the caller compensates through the returned
        squared normalization factor.

        Returns ``(signal_power, weight_norm_sq)`` where ``signal_power``
        is the interval-arithmetic power of the combined output (matching
        what the subproblem's own range analysis will derive) and
        ``weight_norm_sq`` is the square of the normalization divisor.
        """
        graph = subgraph.graph
        sources = sorted(subgraph.boundary_outputs)
        raw = [math.sqrt(max(problem.noise_gain(source), 0.0)) for source in sources]
        norm = max(raw)
        if norm <= 0.0:
            raw = [1.0] * len(sources)
            norm = 1.0
        weights = [max(value / norm, OBJECTIVE_WEIGHT_FLOOR) for value in raw]
        acc = None
        lo = hi = 0.0
        for index, (source, weight) in enumerate(zip(sources, weights)):
            coeff = graph.add_const(weight, name=f"__objw{index}")
            term = graph.add_mul(source, coeff, name=f"__objt{index}")
            acc = (
                term
                if acc is None
                else graph.add_add(acc, term, name=f"__obja{index}")
            )
            bounds = problem.ranges[source]
            lo += weight * bounds.lo
            hi += weight * bounds.hi
        graph.add_output(acc, name=OBJECTIVE_PORT)
        signal_power = max(uniform_power(Interval(lo, hi)), 1e-300)
        return signal_power, norm * norm

    def _local_floor_db(
        self,
        problem: OptimizationProblem,
        signal_power: float,
        weight_norm_sq: float,
        share: float,
        scale: float,
    ) -> float:
        """Local SNR floor whose noise budget matches the partition's share.

        The partition may inject ``share * scale`` of the global noise
        budget.  Noise at the synthesized objective output approximates
        the partition's global contribution divided by the squared
        weight normalization, so the floor is the objective's signal
        power over that normalized allowance.  Heuristic by design — the
        outer loop's whole-graph evaluation is the actual gatekeeper.
        """
        threshold_db = problem.snr_floor_db + problem.margin_db
        global_budget = problem.signal_power * 10.0 ** (-threshold_db / 10.0)
        allowed = max(global_budget * share * scale / weight_norm_sq, 1e-300)
        floor = 10.0 * math.log10(signal_power / allowed)
        return float(min(max(floor, 1.0), 280.0))

    # ------------------------------------------------------------------ #
    # the outer loop
    # ------------------------------------------------------------------ #
    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        uniform_eval, uniform_w, _last = _sweep_uniform(problem, trace)
        if uniform_eval is None:
            return None, None, None
        best = uniform_eval

        parts = self._resolve_parts(problem)
        outer_budget = (
            self.outer_iterations
            if self.outer_iterations is not None
            else problem.config.outer_iterations
        )
        partitioning = partition_graph(problem.graph, parts)
        subgraphs = [
            extract_partition(problem.graph, partitioning, part, problem.ranges)
            for part in range(parts)
        ]
        shares = self._partition_weights(problem, partitioning)
        objectives = [
            self._attach_objective(problem, subgraph) for subgraph in subgraphs
        ]
        owners = partitioning.assignment

        scale = 10.0 ** (-INITIAL_PAD_DB / 10.0)
        consensus: Dict[str, int] = {}
        start_outer = 0
        state = checkpoint.load() if checkpoint is not None else None
        if state and state.get("strategy") == self.name and int(
            state.get("parts", -1)
        ) == parts:
            start_outer = int(state["outer"])
            scale = float(state["scale"])
            consensus = {
                str(node): int(bits)
                for node, bits in dict(state.get("consensus", {})).items()
            }
            best_doc = state.get("best")
            if best_doc is not None:
                resumed = problem.evaluate(WordLengthAssignment.from_doc(best_doc))
                _record(trace, problem, "resume incumbent", resumed, resumed.feasible)
                if resumed.feasible and resumed.cost < best.cost:
                    best = resumed

        runner = self._runner()
        threshold_db = problem.snr_floor_db + problem.margin_db
        circuit = problem.name or problem.graph.name

        for outer in range(start_outer, outer_budget):
            specs = []
            for part, subgraph in enumerate(subgraphs):
                signal_power, weight_norm_sq = objectives[part]
                floor_db = self._local_floor_db(
                    problem, signal_power, weight_norm_sq, shares[part], scale
                )
                replicas = set(subgraph.boundary_inputs) | set(
                    subgraph.replicated_consts
                )
                pinned = {
                    node: bits
                    for node, bits in consensus.items()
                    if node in replicas
                }
                document = {
                    "part": part,
                    "graph": subgraph.graph.to_dict(),
                    "input_ranges": {
                        name: list(bounds)
                        for name, bounds in sorted(subgraph.input_ranges.items())
                    },
                    "output": OBJECTIVE_PORT,
                    "config": self._local_config(problem, floor_db),
                    "inner": self.inner,
                    "inner_options": dict(self.inner_options),
                    "pinned": dict(sorted(pinned.items())),
                }
                specs.append(
                    JobSpec(
                        key=f"decomposed/{circuit}/outer{outer}/p{part}",
                        fn=solve_partition_job,
                        args=(document,),
                        seed=derive_seed(self.seed, circuit, outer, part),
                    )
                )
            results = runner.run(specs, check=True)

            # Consensus projection: owners place their nodes, shared
            # signals take the max precision any partition proposed.
            proposals: Dict[str, int] = {}
            merged: Dict[str, int] = {}
            for result in results:
                value = result.value
                part = int(value["part"])
                for node, bits in value["fractional_bits"].items():
                    bits = int(bits)
                    if owners.get(node) == part:
                        merged[node] = bits
                    proposals[node] = max(proposals.get(node, 0), bits)
            shared = {
                node
                for subgraph in subgraphs
                for node in (*subgraph.boundary_inputs, *subgraph.replicated_consts)
            }
            for node in shared:
                merged[node] = max(
                    merged.get(node, 0), proposals.get(node, 0), consensus.get(node, 0)
                )
            consensus = {node: merged[node] for node in sorted(shared)}

            assignment = WordLengthAssignment.from_fractional_bits(
                problem.graph,
                merged,
                problem.ranges,
                quantization=problem.quantization,
                overflow=problem.overflow,
            )
            evaluation = problem.evaluate(assignment)
            _record(
                trace,
                problem,
                f"outer {outer}: merged {parts} partitions (scale {scale:.3g})",
                evaluation,
                evaluation.feasible,
            )

            improved = False
            if evaluation.feasible and evaluation.cost < best.cost:
                best = evaluation
                improved = True

            # Every decision below depends only on (outer, evaluation,
            # best) — never on where the loop started — so a resumed
            # search follows the exact path of an uninterrupted one.
            if evaluation.feasible:
                slack_db = evaluation.snr_db - threshold_db
                relax_worthwhile = (
                    slack_db > RELAX_THRESHOLD_DB
                    and (improved or outer == 0)
                    and outer + 1 < outer_budget
                )
                if not relax_worthwhile:
                    self._snapshot(checkpoint, outer + 1, scale, consensus, best, parts)
                    break
                # Feasible with room to spare: let partitions spend more
                # of the budget next round.
                scale *= 10.0 ** ((slack_db - TIGHTEN_PAD_DB) / 10.0)
            else:
                deficit_db = threshold_db - evaluation.snr_db
                scale *= 10.0 ** (-(deficit_db + TIGHTEN_PAD_DB) / 10.0)
            self._snapshot(checkpoint, outer + 1, scale, consensus, best, parts)

        return best, uniform_eval.cost, uniform_w

    def _snapshot(
        self,
        checkpoint: SearchCheckpoint | None,
        outer: int,
        scale: float,
        consensus: Mapping[str, int],
        best: DesignEvaluation,
        parts: int,
    ) -> None:
        if checkpoint is None:
            return
        checkpoint.save(
            {
                "strategy": self.name,
                "parts": parts,
                "outer": outer,
                "scale": scale,
                "consensus": dict(sorted(consensus.items())),
                "best": best.assignment.to_doc(),
            }
        )


# Registered here (not in strategies.py) so the registry import graph
# stays acyclic; ``repro.optimize`` imports this module right after
# ``strategies``, so "decomposed" is registered before any lookup.
from repro.optimize.strategies import OPTIMIZERS  # noqa: E402

OPTIMIZERS[DecomposedOptimizer.name] = DecomposedOptimizer
