"""The SNR-constrained word-length optimization problem.

An :class:`OptimizationProblem` bundles everything a strategy needs:

* the circuit (graph + input ranges) and the analysis output to protect;
* the constraint — an output SNR floor in dB (plus an optional safety
  margin the analytic model must clear);
* the objective — a :class:`~repro.optimize.cost.HardwareCostModel`;
* one noise-analysis method (``ia`` / ``aa`` / ``taylor`` / ``pna``)
  used to judge feasibility, with an analyzer-call counter so strategies
  can report how much analysis their search spent;
* precomputed per-node noise gains (one adjoint sweep over the unrolled
  graph), which let greedy strategies *rank* bit-shaving candidates
  without re-analyzing the whole graph for every candidate.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.config import OptimizeConfig
from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.dfg.range_analysis import infer_ranges
from repro.dfg.trace import TracedCircuit, unpack_circuit
from repro.dfg.unroll import base_name as _base_name
from repro.dfg.unroll import unroll_sequential
from repro.errors import DivisionByZeroIntervalError, DomainError, OptimizationError
from repro.fixedpoint.format import OverflowMode, QuantizationMode
from repro.intervals.interval import Interval, RangeLike, coerce_interval, uniform_power
from repro.noisemodel.analyzer import ANALYSIS_METHODS, PDF_METHODS
from repro.noisemodel.assignment import (
    WordLengthAssignment,
    ensure_range_coverage,
    moved_format,
)
from repro.noisemodel.gains import transfer_gains
from repro.optimize.cost import COST_TABLES, CostLedger, HardwareCostModel
from repro.utils.mathutils import integer_bits_for_range, snr_db

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

    #: Structured :class:`~repro.analysis.degradation.DegradationEvent`
    #: log of every sharded Monte-Carlo validation whose dead worker pool
    #: was rerun on serial shards.
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
    #: Lane prices by design: ``priced[key][(node, new_frac)]`` is the
    #: noise power ``price_moves`` returned for that move from the design
    #: whose ``key()`` is ``key``.  A lane depends only on the design and
    #: its move, so a descent re-entering a design (at the same floor or
    #: a looser one) prices only moves no earlier batch priced from it,
    #: and ``evaluate`` serves the moved design from its lane.
    priced: Dict[tuple, Dict[Tuple[str, int], float]] = field(default_factory=dict)
    #: The design the search last accepted, not yet committed to
    #: ``incremental``; the next use of that engine commits it first.
    accepted: WordLengthAssignment | None = None
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
        #: Worker count of :meth:`monte_carlo_snr`.  ``None`` draws one
        #: stream; any integer selects the sharded validator, whose
        #: numbers are identical for every worker count (``1`` shards
        #: serially, ``N`` in processes).
        self.mc_workers = config.mc_workers
        # Everything mutable and floor-independent; shared with every
        # rescoped() view by reference.
        self._state = _SearchState()

    # Read-only, so no view can fork them; documented on _SearchState.
    analyzer_calls = property(attrgetter("_state.analyzer_calls"))
    evaluate_cache_hits = property(attrgetter("_state.evaluate_cache_hits"))
    degradations = property(attrgetter("_state.degradations"))
    #: Candidate-pricing engine (:attr:`OptimizeConfig.engine`): strategies
    #: route their inner loops through :meth:`price_moves` when it is
    #: ``batched``.  Every evaluation runs on the one incremental engine.
    engine = property(attrgetter("config.engine"))

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
        instead of :attr:`analyzer_calls` — a search never re-prices a
        revisited design.  The cache is shared with every
        :meth:`rescoped` view; a hit's ``feasible`` verdict is re-judged
        against this view's floor.  A miss that is one priced move away
        from a design :meth:`price_moves` priced (the move's node alone
        changed, to the format its lane priced) takes that lane's noise
        power, which equals the analysis bit for bit; a batched greedy
        descent therefore analyzes none of the shaves it accepts.  Every
        other miss runs through the search's one
        :class:`~repro.analysis.incremental.IncrementalAnalyzer`, which
        re-propagates only the downstream cone of the nodes whose formats
        changed since the committed design; greedy single-node probes
        therefore cost O(cone) instead of O(graph).  Either way a miss is
        logged in :attr:`analysis_log`, counts in :attr:`analyzer_calls`
        and gets the next evaluation ``index``, so results and traces do
        not depend on which of the two produced it.  The engine
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
        differ from that design: O(changed) evaluations of the cost
        model's compiled per-node pricers for a greedy probe.  The total
        is re-summed in graph order, so ``evaluation.cost`` equals
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
        noise_power = self._lane(assignment)
        if noise_power is None:
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
        return snr_db(self.signal_power, noise_power)

    def _analyze(self, assignment: WordLengthAssignment) -> float:
        """Output noise power of one candidate, on the incremental engine.

        A candidate whose errors grow past a nonlinear operator's domain
        premise (``sqrt``/``log`` enclosures crossing their boundary, a
        divisor enclosure swallowing zero, an error past the float
        range) cannot be analyzed soundly;
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

    def _lane(self, assignment: WordLengthAssignment) -> float | None:
        """The memoized lane price of ``assignment``, or ``None`` if no lane priced it.

        Lane ``(node, f)`` of a design prices exactly one design: that
        design with ``node``'s format set to its format at ``f``
        fractional bits, coverage-widened as :meth:`evaluate` widens it.
        So ``assignment`` is served only when a recorded ancestor with
        lanes differs from it at one node, and that node's format is the
        very format the lane priced.
        """
        priced = self._state.priced
        if not priced:
            return None
        for key, node, prior in assignment.one_node_ancestors():
            lanes = priced.get(key)
            if lanes is None:
                continue
            fmt = assignment.formats[node]
            frac = fmt.fractional_bits
            lane = lanes.get((node, frac))
            if lane is not None and fmt == moved_format(node, prior, frac, self.ranges):
                return lane
        return None

    def _incremental_engine(self, assignment: WordLengthAssignment):
        """The search's one :class:`IncrementalAnalyzer`, built from ``assignment`` on first use.

        Evaluations and the batched engine's move probes share it.
        The design :meth:`notify_accepted` last recorded is committed
        here, before the engine is used, so a probe from the current
        design re-propagates only its own move's cone.
        """
        state = self._state
        if state.incremental is None:
            # Local import: building a problem loads no repro.analysis
            # module, which keeps perfbench's timed set-up free of it; the
            # engine loads on first use.
            from repro.analysis.incremental import IncrementalAnalyzer

            state.incremental = IncrementalAnalyzer(
                self.graph, assignment, self.input_ranges, horizon=self.horizon
            )
        elif state.accepted is not None:
            accepted, state.accepted = state.accepted, None
            state.incremental.commit(accepted)
        return state.incremental

    def notify_accepted(self, assignment: WordLengthAssignment) -> None:
        """Tell the evaluator that ``assignment`` is the search's new current design.

        Strategies call this when they accept a move (passing the widened
        ``evaluation.assignment``).  The incremental engine commits the
        design as its re-propagation baseline, so every later probe pays
        only the cone of its own perturbation instead of (probe +
        drift-since-baseline).  The commit is deferred until the engine
        is next used (an evaluation it analyzes, or a batch the batched
        engine prices by probing it); a later call replaces the recorded
        design, so a descent whose evaluations are served from priced
        lanes commits once, not once per step.  Purely a performance
        hint — results are identical without it.
        """
        if self._state.incremental is not None:
            self._state.accepted = assignment

    # ------------------------------------------------------------------ #
    # batched candidate pricing
    # ------------------------------------------------------------------ #
    def batched_engine(self):
        """The problem's lazily-built, shared :class:`BatchedAnalyzer`.

        It prices moves on the problem's one incremental engine, the one
        evaluations use and :meth:`notify_accepted` commits: every batch
        probes that engine once per move
        (:meth:`IncrementalAnalyzer.probe_moves`).  Available regardless
        of :attr:`engine` — strategies consult :attr:`engine` to decide
        whether to route their inner loops through it.
        """
        state = self._state
        if state.batched is None:
            # Local import: building a problem loads no repro.analysis
            # module, which keeps perfbench's timed set-up free of it; the
            # engine loads on first use.
            from repro.analysis.batched import BatchedAnalyzer

            # Building reads no committed errors, so an existing engine is
            # taken as it is; price_moves commits the accepted design.
            engine = state.incremental
            if engine is None:
                engine = self._incremental_engine(self.uniform(self.min_word_length))
            state.batched = BatchedAnalyzer(engine, self.ranges)
        return state.batched

    def price_moves(
        self,
        assignment: WordLengthAssignment,
        moves: Sequence[Tuple[str, int]],
    ) -> np.ndarray:
        """Noise power of every ``(node, new_fractional_bits)`` move at once.

        Lane *k* carries exactly the noise power :meth:`evaluate` would
        analyze for ``assignment.with_fractional_bits(*moves[k])`` — the
        per-move coverage widening included — with domain-violating or
        uncoverable lanes priced at ``inf``.  ``assignment`` must already
        be coverage-widened (every ``DesignEvaluation.assignment`` is);
        one in other quantization/overflow modes than the problem's raises
        :class:`OptimizationError`, as :meth:`evaluate` does, and so does
        a move naming a node ``assignment`` has no format for.

        **Memo.**  Lane prices are memoized per design in the search state
        shared with every :meth:`rescoped` view (``_SearchState.priced``,
        keyed on :meth:`WordLengthAssignment.key` and the move).  Only the
        moves no earlier call priced from this design go to the batched
        engine, in one vectorized pass, and their prices are stored once
        that pass returns; the result is a float64 array in ``moves``
        order.  A repeat, subset or re-entered frontier therefore costs
        the engine nothing.  The evaluation cache and its counters are
        untouched here; :meth:`evaluate` later serves a priced move from
        its lane instead of analyzing it.  Every batch first commits the
        design :meth:`notify_accepted` recorded, then probes the
        incremental engine.

        A batch the engine fails to price raises that error and stores no
        lane; a lane that cannot be analyzed (a domain violation) is not a
        failure, it prices ``inf``.
        """
        self._check_graph()
        self._check_modes(assignment)
        unknown = sorted({node for node, _ in moves if node not in assignment.formats})
        if unknown:
            raise OptimizationError(
                f"moves name nodes without a fixed-point format: {', '.join(unknown)}"
            )
        state = self._state
        key = assignment.key()
        known = state.priced.get(key, {})
        missing = [move for move in dict.fromkeys(moves) if move not in known]
        if missing:
            engine = self.batched_engine()
            self._incremental_engine(assignment)  # commits the accepted design
            noise = engine.price_moves(
                assignment,
                missing,
                method=self.method,
                output=self.output,
                confidence=self.confidence,
            )
            known = state.priced.setdefault(key, {})
            known.update(zip(missing, noise.tolist()))
        return np.array([known[move] for move in moves], dtype=np.float64)

    @property
    def fallback_probes(self) -> int:
        """Move probes the batched engine ran on the incremental engine.

        Every batch is priced one cone probe per move on the problem's
        shared incremental analyzer; this counts those probes, one per
        lane that has a format.  Evaluations are not counted.
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
        ledger, evaluation caches, lane-price memo, counters and
        degradation log.  Work done through any view therefore warms and
        counts them all, and a Pareto sweep pays the analyzer only for
        designs no earlier floor visited.  Cached evaluations are
        re-judged against the reading view's floor.
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
    ) -> float:
        """Measured SNR of a design under the bit-true Monte-Carlo simulator.

        The problem's :attr:`mc_workers` selects the stream topology
        through :func:`~repro.analysis.montecarlo.monte_carlo_validate`:
        ``None`` draws one stream from ``seed``; an integer shards the
        budget into fixed chunks with per-chunk derived seeds, so the
        measured SNR is identical whether the chunks run on one worker or
        many.  A dead worker pool reruns the shards serially and records
        a :class:`~repro.analysis.degradation.DegradationEvent` in
        :attr:`degradations`.

        Validation judges at the problem's own :attr:`confidence`, the
        same functional the search optimized: with a confidence set, the
        sampled noise measure becomes the squared empirical
        ``confidence``-quantile of ``|error|`` (``1.0`` = the squared
        peak error); without one it is the mean-square error.
        """
        # Local import: building a problem loads no repro.analysis
        # module, which keeps perfbench's timed set-up free of it; the
        # validator loads on first use.
        from repro.analysis.montecarlo import monte_carlo_validate

        result = monte_carlo_validate(
            self.graph,
            assignment,
            self.input_ranges,
            samples=samples,
            steps=self.horizon,
            output=self.output,
            seed=seed,
            workers=self.mc_workers,
            degradations=self._state.degradations,
        )
        if self.confidence is None:
            return self._snr_db(result.noise_power)
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
        circuit: TracedCircuit | DFG,
        snr_floor_db: float,
        input_ranges: Mapping[str, RangeLike] | None = None,
        **options: object,
    ) -> "OptimizationProblem":
        """Build a problem from a circuit record or a DFG plus ``input_ranges``.

        A record's name and designated output are the defaults of the
        ``name`` and ``output`` options.
        """
        graph, input_ranges, name, output = unpack_circuit(
            circuit, input_ranges, OptimizationError
        )
        options.setdefault("name", name)
        options.setdefault("output", output)
        return cls(graph, input_ranges, snr_floor_db, **options)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OptimizationProblem({self.name!r}, method={self.method!r}, "
            f"floor={self.snr_floor_db:.1f}dB, nodes={len(self.tunable)} tunable)"
        )
