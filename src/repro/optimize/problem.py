"""The SNR-constrained word-length optimization problem.

An :class:`OptimizationProblem` bundles everything a strategy needs:

* the circuit (graph + input ranges) and the analysis output to protect;
* the constraint — an output SNR floor in dB (plus an optional safety
  margin the analytic model must clear);
* the objective — a :class:`~repro.optimize.cost.HardwareCostModel`;
* one noise-analysis method (``ia`` / ``aa`` / ``taylor`` / ``sna``)
  used to judge feasibility, with an analyzer-call counter so strategies
  can report how much analysis their search spent;
* precomputed per-node noise gains (one adjoint sweep over the unrolled
  graph), which let greedy strategies *rank* bit-shaving candidates
  without re-analyzing the whole graph for every candidate.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.config import OptimizeConfig
from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.dfg.range_analysis import infer_ranges
from repro.dfg.unroll import base_name as _base_name
from repro.dfg.unroll import unroll_sequential
from repro.errors import (
    DivisionByZeroIntervalError,
    DomainError,
    NoiseModelError,
    OptimizationError,
    ReproError,
)
from repro.fixedpoint.format import OverflowMode, QuantizationMode
from repro.intervals.interval import Interval, RangeLike, coerce_interval, uniform_power
from repro.noisemodel.analyzer import ANALYSIS_METHODS, PDF_METHODS
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage
from repro.noisemodel.gains import transfer_gains
from repro.optimize.cost import COST_TABLES, CostLedger, HardwareCostModel
from repro.utils.mathutils import integer_bits_for_range

__all__ = ["DesignEvaluation", "OptimizationProblem"]


@dataclass(frozen=True, slots=True)
class DesignEvaluation:
    """One analyzed candidate: its cost, achieved SNR and feasibility."""

    assignment: WordLengthAssignment
    cost: float
    snr_db: float
    noise_power: float
    feasible: bool
    # Analyzer-call number that produced this evaluation, counted across
    # the problem and all its rescoped views, so unique among them.
    index: int


@dataclass(eq=False)
class _SearchState:
    """The mutable, floor-independent state of one problem's search.

    A problem and every :meth:`OptimizationProblem.rescoped` view of it
    hold the same instance, so engines, caches, counters and the
    degradation log are built, warmed and advanced once, whichever view
    does the work.
    """

    #: Candidate-pricing engine (``incremental`` / ``batched``).  Both
    #: evaluate on the one incremental engine; ``batched`` additionally
    #: exposes vectorized batch pricing to strategies through
    #: ``price_moves``.  A batched failure degrades it to ``incremental``.
    engine: str
    #: Structured :class:`~repro.analysis.degradation.DegradationEvent`
    #: log of every engine fallback taken.
    degradations: list = field(default_factory=list)
    #: Evaluations by widened-assignment key.  ``feasible`` is the verdict
    #: of the view that analyzed it; readers re-judge it at their floor.
    evaluations: Dict[tuple, DesignEvaluation] = field(default_factory=dict)
    uniform: Dict[int, DesignEvaluation] = field(default_factory=dict)
    incremental: object = None  # lazily-built IncrementalAnalyzer
    batched: object = None  # lazily-built BatchedAnalyzer
    gain_sq: Dict[str, float] | None = None
    gain_abs: Dict[str, float] | None = None
    pricing: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] | None = None
    ledger: CostLedger | None = None  # built by the first evaluate()
    #: Analyzer invocations so far (strategies report deltas of this).
    analyzer_calls: int = 0
    #: Memoized evaluations served without an analyzer call.
    evaluate_cache_hits: int = 0


class OptimizationProblem:
    """Circuit + SNR floor + cost model, ready for a strategy to search.

    Parameters
    ----------
    graph:
        The dataflow graph (combinational or sequential).
    input_ranges:
        Range of every external input.
    snr_floor_db:
        The constraint: achieved output SNR must be at least this.
        ``None`` falls back to ``config.snr_floor_db``.
    cost_model:
        Objective; defaults to :class:`HardwareCostModel` over
        ``config.cost_table``.
    config:
        An :class:`~repro.config.OptimizeConfig` carrying the analysis
        method, search-space box constraints, analyzer knobs and the
        candidate-evaluation engine.
    """

    def __init__(
        self,
        graph: DFG,
        input_ranges: Mapping[str, RangeLike],
        snr_floor_db: float | None = None,
        cost_model: HardwareCostModel | None = None,
        config: OptimizeConfig | None = None,
        output: str | None = None,
        name: str | None = None,
    ) -> None:
        if config is None:
            config = OptimizeConfig()
        if snr_floor_db is not None:
            config = config.replace(snr_floor_db=float(snr_floor_db))
        if str(config.method).lower() not in ANALYSIS_METHODS:
            raise OptimizationError(
                f"unknown analysis method {config.method!r}; choose from {ANALYSIS_METHODS}"
            )
        if str(config.method).lower() != config.method:
            config = config.replace(method=str(config.method).lower())
        #: The resolved :class:`OptimizeConfig` this problem searches under.
        self.config = config
        self.graph = graph
        self.input_ranges = {str(k): coerce_interval(v) for k, v in input_ranges.items()}
        missing = [n for n in graph.inputs() if n not in self.input_ranges]
        if missing:
            raise OptimizationError(f"missing input ranges for: {', '.join(sorted(missing))}")
        self.snr_floor_db = float(config.snr_floor_db)
        if cost_model is None:
            table = COST_TABLES.get(config.cost_table)
            if table is None:
                raise OptimizationError(
                    f"unknown cost table {config.cost_table!r}; available: "
                    f"{', '.join(COST_TABLES)}"
                )
            cost_model = HardwareCostModel(table)
        self.cost_model = cost_model
        self.method = config.method
        #: Confidence level of the SNR constraint (see
        #: :attr:`OptimizeConfig.confidence`): ``None`` = mean-square
        #: power, ``1.0`` = worst-case peak, fractional = the squared
        #: confidence-quantile of ``|error|``.
        self.confidence = config.confidence
        if (
            self.confidence is not None
            and self.confidence < 1.0
            and config.method not in PDF_METHODS
        ):
            raise OptimizationError(
                f"confidence={self.confidence!r} needs a PDF-producing analysis "
                f"method ({', '.join(PDF_METHODS)}); method {config.method!r} only "
                "supports confidence=1.0 (worst case) or confidence=None "
                "(mean-square power)"
            )
        self.horizon = int(config.horizon)
        self.bins = int(config.bins)
        self.margin_db = float(config.margin_db)
        self.min_fractional_bits = int(config.min_fractional_bits)
        self.max_word_length = int(config.max_word_length)
        self.quantization = QuantizationMode.coerce(config.quantization)
        self.overflow = OverflowMode.coerce(config.overflow)
        self.name = name or graph.name
        #: :attr:`DFG.version` the problem was built against; every cache
        #: below assumes the graph has not changed since.
        self._graph_version = graph.version

        range_result = infer_ranges(graph, self.input_ranges)
        if not range_result.converged:
            raise OptimizationError(
                f"range analysis of {graph.name!r} did not converge after "
                f"{range_result.iterations} iterations (unstable feedback?)"
            )
        self.ranges: Dict[str, Interval] = range_result.ranges

        outputs = graph.outputs()
        if not outputs:
            raise OptimizationError(f"graph {graph.name!r} has no outputs")
        if output is None:
            output = outputs[0]
        elif output not in outputs:
            raise OptimizationError(f"unknown output {output!r}; graph outputs: {outputs}")
        self.output = output
        self.signal_power = uniform_power(self.ranges[output])

        #: Per-node minimum integer bits (range-derived, fixed during search).
        self.integer_bits: Dict[str, int] = {
            node.name: integer_bits_for_range(
                self.ranges[node.name].lo, self.ranges[node.name].hi, signed=True
            )
            for node in graph
            if node.op is not OpType.OUTPUT
        }
        #: Nodes whose fractional precision a strategy may change.  DELAY
        #: registers are excluded: they forward already-quantized values,
        #: so their nominal format neither injects noise nor sizes hardware.
        self.tunable: list[str] = [
            node.name
            for node in graph
            if node.op not in (OpType.OUTPUT, OpType.DELAY)
        ]

        #: When set to a list, evaluate() appends every (widened) assignment
        #: it actually analyzes, so a caller can replay a search's
        #: candidates through a reference evaluator.  Owned by each view.
        self.analysis_log: list | None = None
        #: Whether a broken batched engine degrades onto the incremental
        #: one instead of raising.  Incremental failures always raise.
        self.engine_fallback = config.engine_fallback
        #: Default worker count of :meth:`monte_carlo_snr`.  ``None``
        #: keeps the legacy single-stream validator; any integer selects
        #: the sharded validator, whose numbers are identical for every
        #: worker count (``1`` shards serially, ``N`` in processes).
        self.mc_workers = config.mc_workers
        # Everything mutable and floor-independent; shared with every
        # rescoped() view by reference.
        self._state = _SearchState(engine=config.engine)

    # Read-only, so no view can fork them; documented on _SearchState.
    analyzer_calls = property(attrgetter("_state.analyzer_calls"))
    evaluate_cache_hits = property(attrgetter("_state.evaluate_cache_hits"))
    engine = property(attrgetter("_state.engine"))
    degradations = property(attrgetter("_state.degradations"))

    def _check_graph(self) -> None:
        """Raise when the graph changed after this problem was built."""
        if self.graph.version != self._graph_version:
            raise OptimizationError(
                f"graph {self.graph.name!r} was modified after its OptimizationProblem "
                "was built; build a new problem for the modified graph"
            )

    # ------------------------------------------------------------------ #
    # candidate construction
    # ------------------------------------------------------------------ #
    @property
    def min_word_length(self) -> int:
        """Smallest uniform word length whose integer parts all fit."""
        return max(self.integer_bits.values(), default=1)

    def uniform(self, word_length: int) -> WordLengthAssignment:
        """Coverage-widened uniform assignment at ``word_length`` bits."""
        assignment = WordLengthAssignment.uniform(
            self.graph,
            word_length,
            self.ranges,
            quantization=self.quantization,
            overflow=self.overflow,
        )
        return ensure_range_coverage(assignment, self.ranges)

    def evaluate_uniform(self, word_length: int) -> DesignEvaluation:
        """Cached :meth:`evaluate` of the uniform design at ``word_length``.

        Every strategy climbs the same uniform ladder to find its
        baseline; on a shared problem the cache means only the first
        strategy pays the analyzer for it.
        """
        cached = self._state.uniform.get(word_length)
        if cached is None:
            cached = self._state.uniform[word_length] = self.evaluate(self.uniform(word_length))
        return self._judged(cached)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, assignment: WordLengthAssignment) -> DesignEvaluation:
        """Analyze one candidate and price it.

        The assignment is coverage-widened first: shaving fractional bits
        *lowers* a format's ``max_value`` (``2**(i-1) - 2**-f``), so a
        node whose range ends within one old quantization step of the
        power-of-two boundary can start clipping after a shave — which
        would break the saturation-free premise of the error models.  The
        returned evaluation carries (and prices) the widened assignment;
        strategies must continue from ``evaluation.assignment``.

        **Caching contract.**  Evaluations are memoized on the canonical
        :meth:`WordLengthAssignment.key` of the *widened* assignment: two
        candidates that widen to the same design return the same (cached)
        evaluation, cost nothing, and bump :attr:`evaluate_cache_hits`
        instead of :attr:`analyzer_calls` — annealing never re-prices a
        revisited design.  The cache is shared with every
        :meth:`rescoped` view; a hit's ``feasible`` verdict is re-judged
        against this view's floor.  Cache misses run through the search's
        one :class:`~repro.analysis.incremental.IncrementalAnalyzer`,
        which re-propagates only the downstream cone of the nodes whose
        formats changed since the committed design; greedy single-node
        probes therefore cost O(cone) instead of O(graph).  The engine
        is built for the problem's quantization and overflow modes, so
        an assignment in any other mode raises
        :class:`OptimizationError`.  The cache is sound because an
        evaluation depends only on the assignment and on problem-level
        constants (graph, ranges, method, cost model); mutate any
        of those and the problem must be rebuilt, not reused.  A graph
        mutation is detected (through :attr:`DFG.version`) and raises
        :class:`OptimizationError`.

        **Pricing.**  A miss is priced by one :class:`CostLedger` shared
        with every view.  It holds the per-node prices of the last design
        priced and re-prices only the ``affected`` sets of
        :meth:`pricing_neighbourhood` around the nodes whose formats
        differ from that design, which is O(changed) ``node_cost`` calls
        for a greedy or annealing probe.  The total is re-summed in graph
        order, so ``evaluation.cost`` equals
        ``cost_model.price(graph, evaluation.assignment).total`` exactly.
        Call ``cost_model.price`` directly for a per-node breakdown.
        """
        self._check_graph()
        self._check_modes(assignment)
        state = self._state
        assignment = ensure_range_coverage(assignment, self.ranges)
        key = assignment.key()
        cached = state.evaluations.get(key)
        if cached is not None:
            state.evaluate_cache_hits += 1
            return self._judged(cached)
        if self.analysis_log is not None:
            self.analysis_log.append(assignment)
        noise_power = self._analyze(assignment)
        state.analyzer_calls += 1
        snr_db = self._snr_db(noise_power)
        if state.ledger is None:
            scopes = {name: entry[0] for name, entry in self.pricing_neighbourhood().items()}
            state.ledger = CostLedger(self.cost_model, self.graph, scopes)
        evaluation = DesignEvaluation(
            assignment=assignment,
            cost=state.ledger.total(assignment),
            snr_db=snr_db,
            noise_power=noise_power,
            feasible=snr_db >= self.snr_floor_db + self.margin_db,
            index=state.analyzer_calls,
        )
        state.evaluations[key] = evaluation
        return evaluation

    def _check_modes(self, assignment: WordLengthAssignment) -> None:
        """Reject an assignment whose quantization/overflow modes differ from the problem's.

        The search's engines are built for the problem's modes, so such an
        assignment can be neither evaluated nor priced.
        """
        if assignment.quantization is not self.quantization or (
            assignment.overflow is not self.overflow
        ):
            raise OptimizationError(
                f"assignment modes ({assignment.quantization.value}, "
                f"{assignment.overflow.value}) differ from the problem's "
                f"({self.quantization.value}, {self.overflow.value}); build a "
                "problem with those modes to analyze it"
            )

    def _judged(self, evaluation: DesignEvaluation) -> DesignEvaluation:
        """``evaluation`` with its ``feasible`` verdict at this view's floor."""
        feasible = evaluation.snr_db >= self.snr_floor_db + self.margin_db
        if feasible == evaluation.feasible:
            return evaluation
        return dataclasses.replace(evaluation, feasible=feasible)

    def _snr_db(self, noise_power: float) -> float:
        if noise_power <= 0.0:
            return float("inf")
        if math.isinf(noise_power) or self.signal_power <= 0.0:
            return float("-inf")
        return 10.0 * math.log10(self.signal_power / noise_power)

    def _analyze(self, assignment: WordLengthAssignment) -> float:
        """Output noise power of one candidate, on the incremental engine.

        A candidate whose errors grow past a nonlinear operator's domain
        premise (``sqrt``/``log`` enclosures crossing their boundary, a
        divisor enclosure swallowing zero) cannot be analyzed soundly;
        it is reported as infinite noise power — i.e. infeasible — so
        the search simply backs away from it instead of crashing.  Any
        other analysis error propagates: there is no slower engine to
        fall back to.
        """
        try:
            return self._incremental_engine(assignment).noise_power(
                assignment, self.method, output=self.output, confidence=self.confidence
            )
        except (DomainError, DivisionByZeroIntervalError):
            return float("inf")

    def _incremental_engine(self, assignment: WordLengthAssignment):
        """The search's one :class:`IncrementalAnalyzer`, built from ``assignment`` on first use.

        Evaluations and the batched engine's fallback probes share it,
        and :meth:`notify_accepted` commits it, so a probe from the
        current design re-propagates only its own move's cone.
        """
        state = self._state
        if state.incremental is None:
            # Local import: repro.analysis imports repro.optimize at module
            # scope (pipeline wiring); importing back lazily avoids the cycle.
            from repro.analysis.incremental import IncrementalAnalyzer

            state.incremental = IncrementalAnalyzer(
                self.graph,
                assignment,
                self.input_ranges,
                horizon=self.horizon,
                bins=self.bins,
            )
        return state.incremental

    def _degrade(self, stage: str, exc: Exception) -> None:
        """Move a ``batched`` problem and its views onto incremental, logging why.

        A no-op once the problem is off the batched engine (or never on
        it), so each search records at most one degradation.
        """
        # Local import: repro.analysis imports repro.optimize at module
        # scope (pipeline wiring); importing back lazily avoids the cycle.
        from repro.analysis.degradation import DegradationEvent

        state = self._state
        if state.engine != "batched":
            return
        state.degradations.append(
            DegradationEvent(
                stage=stage,
                from_engine="batched",
                to_engine="incremental",
                reason=f"{type(exc).__name__}: {exc}",
            )
        )
        state.engine = "incremental"

    def notify_accepted(self, assignment: WordLengthAssignment) -> None:
        """Tell the evaluator that ``assignment`` is the search's new current design.

        Strategies call this when they accept a move (passing the widened
        ``evaluation.assignment``).  The incremental engine then commits
        the design as its re-propagation baseline, so every subsequent
        probe pays only the cone of its own perturbation instead of
        (probe + drift-since-baseline).  Purely a performance hint —
        results are identical without it.
        """
        incremental = self._state.incremental
        if incremental is not None:
            incremental.commit(assignment)

    # ------------------------------------------------------------------ #
    # batched candidate pricing
    # ------------------------------------------------------------------ #
    def batched_engine(self):
        """The problem's lazily-built, shared :class:`BatchedAnalyzer`.

        It is the compiled-IA kernel of the problem's one incremental
        engine, the one evaluations use and :meth:`notify_accepted`
        commits: it compiles that engine's (unrolled) graph and IA value
        enclosures into a vectorized NumPy program once, after which
        :meth:`price_moves` prices whole batches of candidate shaves in
        one array pass.  Methods without a compiled program probe the
        same engine.  Available regardless of :attr:`engine` — strategies
        consult :attr:`engine` to decide whether to route their inner
        loops through it.
        """
        state = self._state
        if state.batched is None:
            # Local import: repro.analysis imports repro.optimize at module
            # scope (pipeline wiring); importing back lazily avoids the cycle.
            from repro.analysis.batched import BatchedAnalyzer

            try:
                state.batched = BatchedAnalyzer(
                    self._incremental_engine(self.uniform(self.min_word_length)), self.ranges
                )
            except ReproError as exc:
                if not self.engine_fallback:
                    raise
                self._degrade("batched-compile", exc)
                if isinstance(exc, NoiseModelError):
                    raise
                raise NoiseModelError(
                    f"batched engine unavailable for {self.name!r}: {exc}"
                ) from exc
        return state.batched

    def price_moves(
        self,
        assignment: WordLengthAssignment,
        moves: Sequence[Tuple[str, int]],
    ):
        """Noise power of every ``(node, new_fractional_bits)`` move at once.

        Lane *k* carries exactly the noise power :meth:`evaluate` would
        analyze for ``assignment.with_fractional_bits(*moves[k])`` — the
        per-move coverage widening included — with domain-violating or
        uncoverable lanes priced at ``inf``.  ``assignment`` must already
        be coverage-widened (every ``DesignEvaluation.assignment`` is);
        one in other quantization/overflow modes than the problem's raises
        :class:`OptimizationError`, as :meth:`evaluate` does.
        One vectorized pass replaces ``len(moves)`` analyzer probes; no
        caches or counters are touched.

        A broken batched engine is the problem's call, not the caller's: a
        ``batched`` problem with :attr:`engine_fallback` degrades onto the
        incremental engine (recording a
        :class:`~repro.analysis.degradation.DegradationEvent`) and returns
        ``None`` — strategies then follow :attr:`engine`.  Otherwise the
        error propagates.
        """
        self._check_graph()
        self._check_modes(assignment)
        degradable = self._state.engine == "batched" and self.engine_fallback
        try:
            engine = self.batched_engine()  # compile failures degrade in there
            return engine.price_moves(
                assignment,
                moves,
                method=self.method,
                output=self.output,
                confidence=self.confidence,
            )
        except ReproError as exc:
            if not degradable:
                raise
            self._degrade("batched-price", exc)
            return None

    @property
    def batched_calls(self) -> int:
        """Vectorized sweeps priced by the batched engine (0 if unused)."""
        batched = self._state.batched
        return batched.batched_calls if batched is not None else 0

    @property
    def fallback_probes(self) -> int:
        """Per-candidate probes the batched engine routed incrementally.

        Non-``"ia"`` methods (and ``confidence`` problems) have no compiled
        vector program, so the batched engine answers them one candidate
        at a time through the problem's shared incremental analyzer; this
        counts those probes.  Evaluations are not counted.
        """
        batched = self._state.batched
        return batched.fallback_probes if batched is not None else 0

    # ------------------------------------------------------------------ #
    # re-scoping and Pareto sweeps
    # ------------------------------------------------------------------ #
    def rescoped(
        self, snr_floor_db: float, margin_db: float | None = None
    ) -> "OptimizationProblem":
        """A view of this problem under a different SNR floor (and margin).

        The view owns only its ``config``, ``snr_floor_db``, ``margin_db``
        and ``analysis_log`` (which starts disabled).  It shares the rest
        by reference: the immutable circuit data, and the one search
        state holding the engines, gains, pricing neighbourhood, cost
        ledger, evaluation caches, counters and degradation log.  Work done
        through any view therefore warms, counts and degrades them all,
        and a Pareto sweep pays the analyzer only for designs no earlier
        floor visited.  Cached evaluations are re-judged against the
        reading view's floor.
        """
        margin = self.margin_db if margin_db is None else float(margin_db)
        view = copy.copy(self)  # attributes are immutable or the shared _state
        view.config = self.config.replace(snr_floor_db=float(snr_floor_db), margin_db=margin)
        view.snr_floor_db = float(snr_floor_db)
        view.margin_db = margin
        view.analysis_log = None
        return view

    def pareto(
        self,
        floors: Sequence[float],
        strategy: str | None = None,
        **strategy_options: object,
    ):
        """Cost-vs-SNR Pareto front over a list of SNR floors in one call.

        See :func:`repro.optimize.pareto.pareto_front` — floors are swept
        tightest-first over rescoped views of this problem, so the resulting
        curve is monotone by construction and this problem stays warm.
        """
        from repro.optimize.pareto import pareto_front

        return pareto_front(self, floors, strategy=strategy, **strategy_options)

    def monte_carlo_snr(
        self,
        assignment: WordLengthAssignment,
        samples: int = 20_000,
        seed: int | None = 0,
        workers: int | None = None,
    ) -> float:
        """Measured SNR of a design under the bit-true Monte-Carlo simulator.

        ``workers`` (default: the problem's ``mc_workers``) selects the
        sharded validator: the sample budget is split into fixed chunks
        with per-chunk derived seeds, so the measured SNR is identical
        whether the chunks run on one worker or many.  ``None`` keeps
        the legacy single-stream draw; ``seed=None`` with workers set
        still shards (and still parallelizes) from a fresh OS-entropy
        base seed.

        Validation judges at the problem's own :attr:`confidence`, the
        same functional the search optimized: with a confidence set, the
        sampled noise measure becomes the squared empirical
        ``confidence``-quantile of ``|error|`` (``1.0`` = the squared
        peak error); without one it is the mean-square error.
        """
        # Local import: repro.analysis imports repro.optimize at module
        # scope (pipeline wiring); importing back lazily avoids the cycle.
        from repro.analysis.montecarlo import monte_carlo_error, monte_carlo_error_sharded

        if workers is None:
            workers = self.mc_workers
        if workers is not None and seed is None:
            # Entropy requested alongside sharding: derive the chunk
            # seeds from a random base instead of dropping the workers.
            seed = int.from_bytes(os.urandom(4), "big")
        if workers is not None:
            result = monte_carlo_error_sharded(
                self.graph,
                assignment,
                self.input_ranges,
                samples=samples,
                steps=self.horizon,
                output=self.output,
                seed=seed,
                workers=workers,
            )
        else:
            result = monte_carlo_error(
                self.graph,
                assignment,
                self.input_ranges,
                samples=samples,
                steps=self.horizon,
                output=self.output,
                rng=seed,
            )
        if self.confidence is None:
            return self._snr_db(result.noise_power)
        import numpy as np

        if self.confidence >= 1.0:
            level = float(np.max(np.abs(result.errors)))
        else:
            level = float(np.quantile(np.abs(result.errors), self.confidence))
        return self._snr_db(level * level)

    # ------------------------------------------------------------------ #
    # gain-based candidate ranking (no analyzer calls)
    # ------------------------------------------------------------------ #
    def _compute_gains(self) -> None:
        if self.graph.is_sequential:
            unrolled = unroll_sequential(self.graph, self.horizon)
            work = unrolled.graph
            target = unrolled.final_instance(self.output)
            inst_ranges = {
                inst: self.ranges.get(_base_name(inst), Interval.point(0.0))
                for inst in work.names()
            }
        else:
            work = self.graph
            target = self.output
            inst_ranges = self.ranges
        profile = transfer_gains(work, inst_ranges, output=target)
        gain_sq: Dict[str, float] = {}
        gain_abs: Dict[str, float] = {}
        for inst in work.names():
            base = _base_name(inst)
            magnitude = profile.magnitude_of(inst)
            gain_sq[base] = gain_sq.get(base, 0.0) + magnitude * magnitude
            gain_abs[base] = gain_abs.get(base, 0.0) + magnitude
        self._state.gain_sq = gain_sq
        self._state.gain_abs = gain_abs

    def pricing_neighbourhood(self) -> Mapping[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]:
        """Per node, ``(affected, readers)``: what a format change there can re-price.

        ``affected`` is :meth:`HardwareCostModel.affected_by` of the node:
        the nodes whose price can move when its format changes.
        ``readers`` are the tunable nodes whose one-bit shave price reads
        the node's format — those whose own ``affected`` set meets it —
        so after an accepted move only their shaves need re-pricing.
        Computed once per problem, by whichever :meth:`rescoped` view asks
        first, and shared with all of them.
        """
        self._check_graph()
        state = self._state
        if state.pricing is None:
            graph, model = self.graph, self.cost_model
            affected = {name: model.affected_by(graph, name) for name in graph.names()}
            priced_by: Dict[str, List[str]] = {name: [] for name in affected}
            for node in self.tunable:
                for name in affected[node]:
                    priced_by[name].append(node)
            neighbourhood = {}
            for name, scope in affected.items():
                readers = dict.fromkeys(r for member in scope for r in priced_by[member])
                neighbourhood[name] = (scope, tuple(readers))
            state.pricing = neighbourhood
        return state.pricing

    def noise_gain(self, node: str) -> float:
        """Sum over time instances of the squared output gain of ``node``."""
        if self._state.gain_sq is None:
            self._compute_gains()
        return self._state.gain_sq.get(node, 0.0)

    def predicted_noise_increase(
        self, assignment: WordLengthAssignment, node: str, new_fractional_bits: int
    ) -> float:
        """Cheap estimate of the output noise-power increase of one shave.

        Uses the precomputed adjoint gains: for a rounding source the
        per-instance variance is ``q^2/12``, so the aggregate delta is
        ``sum(g^2) * (q_new^2 - q_old^2)/12``.  Constants inject a
        *deterministic* residue instead, estimated through the absolute
        gain.  Only a ranking heuristic — acceptance is always decided by
        a real analyzer call.
        """
        fmt = assignment.format_of(node)
        node_obj = self.graph.node(node)
        if node_obj.op is OpType.CONST:
            from repro.fixedpoint.quantize import quantize

            value = float(node_obj.value)
            old_res = quantize(value, fmt, assignment.quantization, assignment.overflow) - value
            new_fmt = fmt.with_fractional_bits(new_fractional_bits)
            new_res = quantize(value, new_fmt, assignment.quantization, assignment.overflow) - value
            if self._state.gain_abs is None:
                self._compute_gains()
            gain = self._state.gain_abs.get(node, 0.0)
            return max(0.0, (gain * new_res) ** 2 - (gain * old_res) ** 2)
        q_old = 2.0 ** (-fmt.fractional_bits)
        q_new = 2.0 ** (-new_fractional_bits)
        return self.noise_gain(node) * (q_new * q_new - q_old * q_old) / 12.0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_circuit(
        cls,
        circuit: object,
        snr_floor_db: float,
        input_ranges: Mapping[str, RangeLike] | None = None,
        **options: object,
    ) -> "OptimizationProblem":
        """Build a problem from a duck-typed benchmark circuit or a DFG."""
        if isinstance(circuit, DFG):
            graph = circuit
        elif hasattr(circuit, "graph") and hasattr(circuit, "input_ranges"):
            graph = circuit.graph
            if input_ranges is None:
                input_ranges = circuit.input_ranges
            options.setdefault("name", getattr(circuit, "name", None))
            options.setdefault("output", getattr(circuit, "output", None))
        else:
            raise OptimizationError(
                f"cannot optimize {type(circuit).__name__}; pass a DFG or a benchmark circuit"
            )
        if input_ranges is None:
            raise OptimizationError("input_ranges is required (none supplied by the circuit)")
        return cls(graph, input_ranges, snr_floor_db, **options)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OptimizationProblem({self.name!r}, method={self.method!r}, "
            f"floor={self.snr_floor_db:.1f}dB, nodes={len(self.tunable)} tunable)"
        )
