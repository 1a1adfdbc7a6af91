"""Whole-graph vectorized candidate pricing with a leading batch axis.

:class:`BatchedAnalyzer` compiles an (unrolled) dataflow graph into a
straight-line NumPy program once per analyzed output, then prices *n*
candidate word-length assignments in one array pass: every propagated
error interval becomes a pair of ``(n,)`` endpoint arrays, and every IA
propagation rule of :class:`~repro.noisemodel.analyzer.DatapathNoiseAnalyzer`
becomes a handful of elementwise array operations.  One call to
:meth:`price` replaces *n* per-node Python dispatch sweeps — the
word-length optimizer's greedy inner loop prices every candidate shave
at once, and annealing can run many chains against one program.

Bit-equivalence contract
------------------------
The compiled program reproduces the scalar ``ia`` engine *exactly*:

* Value enclosures never depend on the assignment, so they are computed
  once with the scalar engine and baked into the program as constants.
* Every error rule is evaluated with the same float operations in the
  same order as the scalar rule, so each batch lane carries the same
  endpoints the scalar analyzer would produce for that candidate (up to
  the sign of IEEE zeros, which no decision or moment depends on).
* The scalar engine's structural-zero shortcuts (``_is_zero``) are
  mirrored with per-lane boolean "error is the float 0.0" masks, so the
  domain checks that scalar zero-errors *skip* (``sqrt`` / ``log`` of a
  perturbed operand) are skipped on exactly the same lanes.
* A lane whose candidate violates a domain premise (divisor enclosure
  swallowing zero, ``sqrt``/``log`` crossing the boundary) is priced at
  ``inf`` — the same verdict :meth:`OptimizationProblem._analyze` gives
  when the scalar engine raises — and its arrays are sanitized so the
  garbage cannot leak into other lanes.

Methods other than ``ia`` (``aa`` / ``taylor`` / ``sna`` / ``pna``), and
every ``confidence`` batch, carry state that does not vectorize into
endpoint arrays; for them :meth:`price` falls back to per-candidate
probes of an :class:`~repro.analysis.incremental.IncrementalAnalyzer`,
which reproduces a from-scratch analysis exactly, so callers can use one
engine object regardless of method.  An optimization problem hands its
own search engine in (``engine=``): the search commits each accepted
design to it, so every probe re-propagates only its own move's cone.  A
standalone analyzer builds a private engine on first use.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.dfg.unroll import base_name as _base_name
from repro.errors import DivisionByZeroIntervalError, DomainError, NoiseModelError
from repro.fixedpoint.format import QuantizationMode
from repro.fixedpoint.quantize import quantize
from repro.intervals.interval import Interval
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage

__all__ = ["BatchedAnalyzer"]

#: Elementwise libm wrappers: ``np.exp`` / ``np.log`` are not guaranteed
#: bit-identical to the C library calls the scalar Interval methods make,
#: so the (rare) exp/log nodes go through the exact same libm symbols.
_EXP = np.frompyfunc(math.exp, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)


def _libm_exp(values: np.ndarray) -> np.ndarray:
    return _EXP(values).astype(np.float64)


def _libm_log(values: np.ndarray) -> np.ndarray:
    return _LOG(values).astype(np.float64)


def _mul_sa(
    iv: Interval, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar-interval x array-interval product (four endpoint products)."""
    p1 = iv.lo * lo
    p2 = iv.lo * hi
    p3 = iv.hi * lo
    p4 = iv.hi * hi
    return (
        np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
        np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)),
    )


def _mul_aa(
    alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray, bhi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Array-interval x array-interval product."""
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    return (
        np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
        np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)),
    )


def _square_arr(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact image of ``x ** 2``, matching ``Interval.__pow__(2)``."""
    lo_p = lo * lo
    hi_p = hi * hi
    contains_zero = (lo <= 0.0) & (0.0 <= hi)
    return (
        np.where(contains_zero, 0.0, np.minimum(lo_p, hi_p)),
        np.maximum(lo_p, hi_p),
    )


#: One propagated error: ``(lo, hi, is_float_zero)`` arrays.  ``lo``/``hi``
#: broadcast against the batch axis (shape ``(n,)`` or ``(1,)`` when the
#: lane content is uniform); the boolean mirrors the scalar engine's
#: "error is exactly the float 0.0" state per lane.
_Err = Tuple[np.ndarray, np.ndarray, np.ndarray]


class _Context:
    """Per-execution scratch shared by the compiled steps."""

    __slots__ = ("zero", "true", "false", "invalid")

    def __init__(self, n: int) -> None:
        self.zero = np.zeros(1)
        self.true = np.ones(1, dtype=bool)
        self.false = np.zeros(1, dtype=bool)
        self.invalid = np.zeros(n, dtype=bool)


class _Program:
    """One compiled output: an ordered list of vectorized error rules.

    ``steps`` is a list of ``(instance, source_base, fn)``: ``fn`` maps
    the error environment to the node's pre-quantization error arrays;
    ``source_base`` names the caller-level node whose per-candidate own
    error is added afterwards (``None`` for source-free instances).
    ``failed`` carries the value-sweep exception for graphs whose value
    enclosures already violate a domain premise — every candidate then
    prices to ``inf``, matching the scalar engine's behavior.
    """

    __slots__ = ("target", "steps", "failed")

    def __init__(
        self,
        target: str,
        steps: List[
            Tuple[str, str | None, Callable[..., Tuple[np.ndarray, np.ndarray, np.ndarray]]]
        ],
        failed: Exception | None = None,
    ) -> None:
        self.target = target
        self.steps = steps
        self.failed = failed


class BatchedAnalyzer:
    """Prices batches of word-length candidates in one vectorized pass.

    Parameters
    ----------
    graph / assignment / input_ranges / horizon / bins:
        Exactly as for :class:`DatapathNoiseAnalyzer`; ``assignment`` is
        the *baseline* design every candidate batch must share format
        coverage (and quantization/overflow modes) with.
    method:
        Default analysis method of :meth:`price` / :meth:`price_moves`.
        Only ``ia`` runs on the compiled path; other methods fall back
        to per-candidate incremental probes.
    ranges:
        Optional per-node value ranges.  When given, candidates are
        coverage-widened exactly like
        :meth:`OptimizationProblem.evaluate` widens them, so batched
        prices match evaluated prices bit for bit; without ranges the
        caller must pass pre-widened assignments.
    engine:
        The :class:`~repro.analysis.incremental.IncrementalAnalyzer` the
        per-candidate fallback probes (same graph, input ranges, horizon
        and bins).  Probes never commit; whoever owns the engine does.
        ``None`` builds a private one on the first fallback probe.
    """

    def __init__(
        self,
        graph: DFG,
        assignment: WordLengthAssignment,
        input_ranges: Mapping[str, Interval],
        *,
        horizon: int = 8,
        bins: int = 32,
        method: str = "ia",
        ranges: Mapping[str, Interval] | None = None,
        engine: Any = None,
    ) -> None:
        method = str(method).lower()
        if method not in ANALYSIS_METHODS:
            raise NoiseModelError(
                f"unknown analysis method {method!r}; choose from {ANALYSIS_METHODS}"
            )
        self.method = method
        self.original = graph
        self.baseline = assignment
        self.horizon = int(horizon)
        self.bins = int(bins)
        self.node_ranges = dict(ranges) if ranges is not None else None
        self._analyzer = DatapathNoiseAnalyzer(
            graph, assignment, input_ranges, horizon=horizon, bins=bins
        )
        self._format_keys = frozenset(assignment.formats)
        self._values: Dict[str, Interval] | None = None
        self._value_failure: Exception | None = None
        self._programs: Dict[str, _Program] = {}
        self._residue_cache: Dict[Tuple[str, int, int], float] = {}
        self._engine = engine
        #: Compiled-path invocations (n candidates each) — perf telemetry.
        self.batched_calls = 0
        #: Per-candidate probes routed through the incremental engine: one
        #: per priceable candidate of a non-``ia`` or ``confidence`` batch.
        self.fallback_probes = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def price(
        self,
        assignments: Sequence[WordLengthAssignment],
        method: str | None = None,
        output: str | None = None,
        confidence: float | None = None,
    ) -> np.ndarray:
        """Output noise power of every candidate: ``noise_power[n]``.

        Candidates must share the baseline's format coverage and
        quantization/overflow modes (a word-length search never changes
        either).  A candidate that cannot be analyzed — domain violation,
        or range coverage impossible within the widening cap — prices to
        ``inf``, the "infeasible, back away" verdict of the scalar path.

        A non-``None`` ``confidence`` switches the priced functional to
        the confidence-bounded noise measure; the compiled IA program
        only computes mean-square power, so those batches route through
        the incremental fallback regardless of method.
        """
        method = self.method if method is None else str(method).lower()
        candidates: List[WordLengthAssignment | None] = []
        for assignment in assignments:
            try:
                candidates.append(self._widen(assignment))
            except NoiseModelError:
                candidates.append(None)
        if method != "ia" or confidence is not None:
            return self._price_fallback(candidates, method, output, confidence)
        n = len(candidates)
        program = self._compile(self._analyzer._resolve_output(output))
        if program.failed is not None:
            return np.full(n, np.inf)
        base_i: Dict[str, np.ndarray] = {}
        base_f: Dict[str, np.ndarray] = {}
        for base in self._format_keys:
            base_i[base] = np.empty(n, dtype=np.int64)
            base_f[base] = np.empty(n, dtype=np.int64)
        unpriceable = np.zeros(n, dtype=bool)
        for j, candidate in enumerate(candidates):
            if candidate is None:
                unpriceable[j] = True
                for base in self._format_keys:
                    fmt = self.baseline.formats[base]
                    base_i[base][j] = fmt.integer_bits
                    base_f[base][j] = fmt.fractional_bits
                continue
            self._check_candidate(candidate)
            for base, fmt in candidate.formats.items():
                base_i[base][j] = fmt.integer_bits
                base_f[base][j] = fmt.fractional_bits
        noise = self._execute(program, base_i, base_f, n)
        if unpriceable.any():
            noise = np.where(unpriceable, np.inf, noise)
        return noise

    def price_moves(
        self,
        assignment: WordLengthAssignment,
        moves: Sequence[Tuple[str, int]],
        method: str | None = None,
        output: str | None = None,
        confidence: float | None = None,
    ) -> np.ndarray:
        """Price every single-node fractional-bit move in one pass.

        ``moves`` is a list of ``(node, new_fractional_bits)`` deltas
        against ``assignment`` (which must already be coverage-widened —
        every ``DesignEvaluation.assignment`` is).  Each move is widened
        per-node exactly like :func:`ensure_range_coverage` would widen
        the whole shaved assignment, so lane *k* prices the very design
        ``evaluate(assignment.with_fractional_bits(*moves[k]))`` analyzes.

        This is the greedy inner loop: for ``ia`` arrays stay single-lane
        wherever no move disturbs them, so the pass costs one vectorized
        sweep rather than ``len(moves)`` cone re-propagations.  Other
        methods and a non-``None`` ``confidence`` (the compiled program
        prices mean-square power only) probe the incremental engine once
        per priceable lane, each probe counted in :attr:`fallback_probes`;
        against an engine whose committed baseline is ``assignment``
        (a problem's engine after ``notify_accepted``) a probe
        re-propagates only its own move's cone.
        """
        method = self.method if method is None else str(method).lower()
        if method != "ia" or confidence is not None:
            candidates: List[WordLengthAssignment | None] = []
            for node, new_frac in moves:
                widened = self._moved_format(assignment, node, new_frac)
                if widened is None:
                    candidates.append(None)
                    continue
                formats = dict(assignment.formats)
                formats[node] = widened
                candidates.append(
                    WordLengthAssignment(formats, assignment.quantization, assignment.overflow)
                )
            return self._price_fallback(candidates, method, output, confidence)
        n = len(moves)
        program = self._compile(self._analyzer._resolve_output(output))
        if program.failed is not None:
            return np.full(n, np.inf)
        base_i: Dict[str, np.ndarray] = {}
        base_f: Dict[str, np.ndarray] = {}
        for base, fmt in assignment.formats.items():
            base_i[base] = np.array([fmt.integer_bits], dtype=np.int64)
            base_f[base] = np.array([fmt.fractional_bits], dtype=np.int64)
        unpriceable = np.zeros(n, dtype=bool)
        for j, (node, new_frac) in enumerate(moves):
            widened = self._moved_format(assignment, node, new_frac)
            if widened is None:
                unpriceable[j] = True
                continue
            if base_i[node].shape[0] == 1:
                base_i[node] = np.repeat(base_i[node], n)
                base_f[node] = np.repeat(base_f[node], n)
            base_i[node][j] = widened.integer_bits
            base_f[node][j] = widened.fractional_bits
        noise = self._execute(program, base_i, base_f, n)
        if unpriceable.any():
            noise = np.where(unpriceable, np.inf, noise)
        return noise

    # ------------------------------------------------------------------ #
    # candidate plumbing
    # ------------------------------------------------------------------ #
    def _widen(self, assignment: WordLengthAssignment) -> WordLengthAssignment:
        if self.node_ranges is None:
            return assignment
        return ensure_range_coverage(assignment, self.node_ranges)

    def _widen_format(self, node: str, fmt):
        """Per-node replica of the :func:`ensure_range_coverage` loop."""
        if self.node_ranges is None:
            return fmt
        interval = self.node_ranges.get(node)
        if interval is None:
            return fmt
        widened = fmt
        while not (widened.min_value <= interval.lo and interval.hi <= widened.max_value):
            if widened.integer_bits - fmt.integer_bits >= 4:
                raise NoiseModelError(
                    f"format of node {node!r} cannot cover its range within the widening cap"
                )
            widened = widened.with_integer_bits(widened.integer_bits + 1)
        return widened

    def _moved_format(self, assignment: WordLengthAssignment, node: str, new_frac: int):
        """The widened format of move ``(node, new_frac)``, or ``None`` if it has none.

        The one widening rule of both :meth:`price_moves` paths.  On an
        already-widened ``assignment`` only the moved node can need
        widening, so this is the format :func:`ensure_range_coverage`
        gives that node in the whole shaved assignment.  A move to
        negative fractional bits, or one whose range the widening cap
        cannot cover, has no format (its lane prices ``inf``).
        """
        if new_frac < 0:
            return None
        try:
            return self._widen_format(
                node, assignment.format_of(node).with_fractional_bits(new_frac)
            )
        except NoiseModelError:
            return None

    def _check_candidate(self, candidate: WordLengthAssignment) -> None:
        if frozenset(candidate.formats) != self._format_keys:
            raise NoiseModelError(
                "batched pricing requires every candidate to format the same node "
                "set as the baseline assignment"
            )
        if (
            candidate.quantization is not self.baseline.quantization
            or candidate.overflow is not self.baseline.overflow
        ):
            raise NoiseModelError(
                "batched pricing requires candidates to share the baseline's "
                "quantization and overflow modes"
            )

    def _price_fallback(
        self,
        candidates: Sequence[WordLengthAssignment | None],
        method: str,
        output: str | None,
        confidence: float | None = None,
    ) -> np.ndarray:
        """Bit-equivalent per-candidate probes through the incremental engine."""
        if method not in ANALYSIS_METHODS:
            raise NoiseModelError(
                f"unknown analysis method {method!r}; choose from {ANALYSIS_METHODS}"
            )
        if self._engine is None:
            # Local import: repro.analysis.incremental imports the analyzer
            # stack this module also sits on; resolving lazily keeps import
            # order flexible for callers.
            from repro.analysis.incremental import IncrementalAnalyzer

            self._engine = IncrementalAnalyzer(
                self.original,
                self.baseline,
                self._analyzer.input_ranges,
                horizon=self.horizon,
                bins=self.bins,
            )
        noise = np.empty(len(candidates))
        for j, candidate in enumerate(candidates):
            if candidate is None:
                noise[j] = np.inf
                continue
            self._check_candidate(candidate)
            self.fallback_probes += 1
            try:
                noise[j] = self._engine.noise_power(
                    candidate, method, output=output, commit=False, confidence=confidence
                )
            except (DomainError, DivisionByZeroIntervalError):
                noise[j] = np.inf
        return noise

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def _value_sweep(self) -> Dict[str, Interval]:
        """Scalar IA value enclosures of every instance (assignment-free)."""
        if self._value_failure is not None:
            raise self._value_failure
        if self._values is None:
            analyzer = self._analyzer
            values: Dict[str, Interval] = {}
            try:
                for name in analyzer.topo_order:
                    node = analyzer.graph.node(name)
                    values[name] = analyzer._value_of("ia", name, node, values, None)
            except (DomainError, DivisionByZeroIntervalError) as exc:
                self._value_failure = exc
                raise
            self._values = values
        return self._values

    def _compile(self, target: str) -> _Program:
        program = self._programs.get(target)
        if program is None:
            try:
                values = self._value_sweep()
            except (DomainError, DivisionByZeroIntervalError) as exc:
                program = _Program(target, [], failed=exc)
                self._programs[target] = program
                return program
            analyzer = self._analyzer
            closure = analyzer._ancestor_closure(target)
            steps = []
            for name in analyzer.topo_order:
                if name not in closure:
                    continue
                node = analyzer.graph.node(name)
                source = analyzer._sources_by_node.get(name)
                source_base = _base_name(name) if source is not None else None
                steps.append((name, source_base, self._compile_step(node, values)))
            program = _Program(target, steps)
            self._programs[target] = program
        return program

    def _compile_step(
        self, node: Any, values: Mapping[str, Interval]
    ) -> Callable[[Dict[str, _Err], _Context], _Err]:
        """One node's IA error rule as a closure over its scalar constants.

        Each closure mirrors ``DatapathNoiseAnalyzer._error_rule`` for its
        op — same formulas, same evaluation order, same branch precedence
        — with the batch axis broadcast through every operation and the
        scalar structural-zero shortcuts carried as per-lane masks.
        """
        op = node.op
        name = node.name

        if op in (OpType.INPUT, OpType.CONST):

            def rule_leaf(E: Dict[str, _Err], ctx: _Context) -> _Err:
                return ctx.zero, ctx.zero, ctx.true

            return rule_leaf

        if op is OpType.OUTPUT:
            a = node.inputs[0]

            def rule_output(E: Dict[str, _Err], ctx: _Context) -> _Err:
                return E[a]

            return rule_output

        if op is OpType.NEG:
            a = node.inputs[0]

            def rule_neg(E: Dict[str, _Err], ctx: _Context) -> _Err:
                lo, hi, z = E[a]
                return -hi, -lo, z

            return rule_neg

        if op is OpType.SQUARE:
            a = node.inputs[0]
            va = values[a]

            def rule_square(E: Dict[str, _Err], ctx: _Context) -> _Err:
                lo, hi, z = E[a]
                m_lo, m_hi = _mul_sa(va, lo, hi)
                s_lo, s_hi = _square_arr(lo, hi)
                return 2.0 * m_lo + s_lo, 2.0 * m_hi + s_hi, z

            return rule_square

        if op in (OpType.ADD, OpType.SUB):
            a, b = node.inputs
            subtract = op is OpType.SUB

            def rule_addsub(E: Dict[str, _Err], ctx: _Context) -> _Err:
                alo, ahi, za = E[a]
                blo, bhi, zb = E[b]
                if subtract:
                    blo, bhi = -bhi, -blo
                return alo + blo, ahi + bhi, za & zb

            return rule_addsub

        if op is OpType.MUL:
            a, b = node.inputs
            va, vb = values[a], values[b]

            def rule_mul(E: Dict[str, _Err], ctx: _Context) -> _Err:
                alo, ahi, za = E[a]
                blo, bhi, zb = E[b]
                t1_lo, t1_hi = _mul_sa(va, blo, bhi)
                t2_lo, t2_hi = _mul_sa(vb, alo, ahi)
                t3_lo, t3_hi = _mul_aa(alo, ahi, blo, bhi)
                return (t1_lo + t2_lo) + t3_lo, (t1_hi + t2_hi) + t3_hi, za & zb

            return rule_mul

        if op is OpType.DIV:
            a, b = node.inputs
            vb = values[b]
            exact = values[name]

            def rule_div(E: Dict[str, _Err], ctx: _Context) -> _Err:
                alo, ahi, za = E[a]
                blo, bhi, zb = E[b]
                # numerator = ea + (-(exact * eb)); the scalar rule builds
                # it in exactly this order, with zero terms contributing
                # exact float zeros on their lanes.
                s_lo, s_hi = _mul_sa(exact, blo, bhi)
                num_lo = alo + (-s_hi)
                num_hi = ahi + (-s_lo)
                den_lo = vb.lo + blo
                den_hi = vb.hi + bhi
                bad = (den_lo <= 0.0) & (den_hi >= 0.0)
                ctx.invalid |= bad
                den_lo = np.where(bad, 1.0, den_lo)
                den_hi = np.where(bad, 1.0, den_hi)
                r_lo, r_hi = _mul_aa(num_lo, num_hi, 1.0 / den_hi, 1.0 / den_lo)
                r_lo = np.where(bad, 0.0, r_lo)
                r_hi = np.where(bad, 0.0, r_hi)
                return r_lo, r_hi, za & zb

            return rule_div

        if op is OpType.SQRT:
            a = node.inputs[0]
            va = values[a]
            value = values[name]

            def rule_sqrt(E: Dict[str, _Err], ctx: _Context) -> _Err:
                lo, hi, z = E[a]
                inner_lo = va.lo + lo
                inner_hi = va.hi + hi
                bad = (inner_lo < 0.0) & ~z
                inner_lo = np.where(bad, 0.0, inner_lo)
                inner_hi = np.where(bad, 0.0, inner_hi)
                den_lo = np.sqrt(inner_lo) + value.lo
                den_hi = np.sqrt(inner_hi) + value.hi
                bad_den = (den_lo <= 0.0) & (den_hi >= 0.0) & ~z
                bad = bad | bad_den
                ctx.invalid |= bad
                den_lo = np.where(bad, 1.0, den_lo)
                den_hi = np.where(bad, 1.0, den_hi)
                r_lo, r_hi = _mul_aa(lo, hi, 1.0 / den_hi, 1.0 / den_lo)
                # scalar zero-error lanes skip the whole formula (and its
                # domain checks); invalid lanes are sanitized to 0 so the
                # garbage cannot reach downstream nodes.
                r_lo = np.where(z | bad, 0.0, r_lo)
                r_hi = np.where(z | bad, 0.0, r_hi)
                return r_lo, r_hi, z

            return rule_sqrt

        if op is OpType.EXP:
            a = node.inputs[0]
            value = values[name]

            def rule_exp(E: Dict[str, _Err], ctx: _Context) -> _Err:
                lo, hi, z = E[a]
                g_lo = _libm_exp(lo) - 1.0
                g_hi = _libm_exp(hi) - 1.0
                r_lo, r_hi = _mul_sa(value, g_lo, g_hi)
                return r_lo, r_hi, z

            return rule_exp

        if op is OpType.LOG:
            a = node.inputs[0]
            va = values[a]
            recip = va.reciprocal()  # va.lo > 0: the value sweep took its log

            def rule_log(E: Dict[str, _Err], ctx: _Context) -> _Err:
                lo, hi, z = E[a]
                ratio_lo, ratio_hi = _mul_sa(recip, lo, hi)
                inner_lo = ratio_lo + 1.0
                inner_hi = ratio_hi + 1.0
                bad = (inner_lo <= 0.0) & ~z
                ctx.invalid |= bad
                inner_lo = np.where(bad, 1.0, inner_lo)
                inner_hi = np.where(bad, 1.0, inner_hi)
                r_lo = _libm_log(inner_lo)
                r_hi = _libm_log(inner_hi)
                r_lo = np.where(z | bad, 0.0, r_lo)
                r_hi = np.where(z | bad, 0.0, r_hi)
                return r_lo, r_hi, z

            return rule_log

        if op is OpType.ABS:
            a = node.inputs[0]
            operand = values[a]
            lo_nonneg = operand.lo >= 0.0
            hi_nonpos = operand.hi <= 0.0

            def rule_abs(E: Dict[str, _Err], ctx: _Context) -> _Err:
                lo, hi, z = E[a]
                c1 = (operand.lo + lo >= 0.0) if lo_nonneg else False
                c2 = (operand.hi + hi <= 0.0) if hi_nonpos else False
                magnitude = np.maximum(np.abs(lo), np.abs(hi))
                r_lo = np.where(c1, lo, np.where(c2, -hi, -magnitude))
                r_hi = np.where(c1, hi, np.where(c2, -lo, magnitude))
                return r_lo, r_hi, z

            return rule_abs

        if op in (OpType.MIN, OpType.MAX):
            a, b = node.inputs
            if a == b:

                def rule_same(E: Dict[str, _Err], ctx: _Context) -> _Err:
                    return E[a]

                return rule_same
            diff = values[a] - values[b]
            is_min = op is OpType.MIN
            diff_lo_nonneg = diff.lo >= 0.0
            diff_hi_nonpos = diff.hi <= 0.0

            def rule_minmax(E: Dict[str, _Err], ctx: _Context) -> _Err:
                alo, ahi, za = E[a]
                blo, bhi, zb = E[b]
                ed_lo = alo - bhi
                ed_hi = ahi - blo
                c1 = (diff.lo + ed_lo >= 0.0) if diff_lo_nonneg else False
                c2 = (diff.hi + ed_hi <= 0.0) if diff_hi_nonpos else False
                # a >= b in both datapaths: min forwards e_b, max e_a.
                f1_lo, f1_hi, z1 = (blo, bhi, zb) if is_min else (alo, ahi, za)
                f2_lo, f2_hi, z2 = (alo, ahi, za) if is_min else (blo, bhi, zb)
                magnitude = np.maximum(np.abs(ed_lo), np.abs(ed_hi))
                t_lo = (alo + blo + -magnitude) * 0.5
                t_hi = (ahi + bhi + magnitude) * 0.5
                r_lo = np.where(c1, f1_lo, np.where(c2, f2_lo, t_lo))
                r_hi = np.where(c1, f1_hi, np.where(c2, f2_hi, t_hi))
                z = (za & zb) | (c1 & z1) | (~np.asarray(c1) & c2 & z2)
                return r_lo, r_hi, z

            return rule_minmax

        if op is OpType.MUX:
            s, a, b = node.inputs
            if a == b:

                def rule_mux_same(E: Dict[str, _Err], ctx: _Context) -> _Err:
                    return E[a]

                return rule_mux_same
            selector = values[s]
            enc_a, enc_b = values[a], values[b]
            sel_lo_nonneg = selector.lo >= 0.0
            sel_hi_neg = selector.hi < 0.0

            def rule_mux(E: Dict[str, _Err], ctx: _Context) -> _Err:
                slo, shi, _zs = E[s]
                alo, ahi, za = E[a]
                blo, bhi, zb = E[b]
                c1 = (selector.lo + slo >= 0.0) if sel_lo_nonneg else False
                c2 = (selector.hi + shi < 0.0) if sel_hi_neg else False
                can_flip = (slo != 0.0) | (shi != 0.0)
                hull_lo = np.minimum(alo, blo)
                hull_hi = np.maximum(ahi, bhi)
                swap1_lo = (enc_b.lo + blo) - enc_a.hi
                swap1_hi = (enc_b.hi + bhi) - enc_a.lo
                swap2_lo = (enc_a.lo + alo) - enc_b.hi
                swap2_hi = (enc_a.hi + ahi) - enc_b.lo
                flip_lo = np.minimum(hull_lo, np.minimum(swap1_lo, swap2_lo))
                flip_hi = np.maximum(hull_hi, np.maximum(swap1_hi, swap2_hi))
                h_lo = np.where(can_flip, flip_lo, hull_lo)
                h_hi = np.where(can_flip, flip_hi, hull_hi)
                r_lo = np.where(c1, alo, np.where(c2, blo, h_lo))
                r_hi = np.where(c1, ahi, np.where(c2, bhi, h_hi))
                z = (c1 & za) | (~np.asarray(c1) & c2 & zb)
                return r_lo, r_hi, z

            return rule_mux

        raise NoiseModelError(
            f"unsupported operation {op!r} at node {name!r} in batched noise propagation"
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _own_error_arrays(
        self,
        program: _Program,
        base_i: Mapping[str, np.ndarray],
        base_f: Mapping[str, np.ndarray],
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Per-candidate quantization-error intervals of every source base.

        Non-constant sources depend only on the fractional bits (and the
        quantization mode); constant sources carry their deterministic
        rounding residue, which also depends on the integer bits through
        saturation — those go through the scalar :func:`quantize` with a
        per-``(node, i, f)`` cache, so repeated formats cost a dict hit.
        """
        graph = self.original
        quantization = self.baseline.quantization
        overflow = self.baseline.overflow
        rounding = quantization is QuantizationMode.ROUND
        own: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        needed = {source_base for _name, source_base, _fn in program.steps if source_base}
        for base in needed:
            node = graph.node(base)
            i_arr = base_i[base]
            f_arr = base_f[base]
            if node.op is OpType.CONST:
                value = float(node.value)
                residues = np.empty(f_arr.shape[0])
                for j in range(f_arr.shape[0]):
                    key = (base, int(i_arr[j]), int(f_arr[j]))
                    residue = self._residue_cache.get(key)
                    if residue is None:
                        fmt = self.baseline.formats[base]
                        fmt = fmt.with_integer_bits(key[1]).with_fractional_bits(key[2])
                        residue = quantize(value, fmt, quantization, overflow) - value
                        self._residue_cache[key] = residue
                    residues[j] = residue
                own[base] = (residues, residues)
                continue
            step = np.power(2.0, -f_arr.astype(np.float64))
            if rounding:
                own[base] = (-0.5 * step, 0.5 * step)
            else:
                own[base] = (-step, np.zeros_like(step))
        return own

    def _execute(
        self,
        program: _Program,
        base_i: Mapping[str, np.ndarray],
        base_f: Mapping[str, np.ndarray],
        n: int,
    ) -> np.ndarray:
        self.batched_calls += 1
        own = self._own_error_arrays(program, base_i, base_f)
        ctx = _Context(n)
        false = ctx.false
        E: Dict[str, _Err] = {}
        with np.errstate(all="ignore"):
            for name, source_base, fn in program.steps:
                lo, hi, z = fn(E, ctx)
                if source_base is not None:
                    own_lo, own_hi = own[source_base]
                    lo = lo + own_lo
                    hi = hi + own_hi
                    z = false
                E[name] = (lo, hi, z)
            lo, hi, _z = E[program.target]
            mean = 0.5 * (lo + hi)
            width = hi - lo
            noise = mean * mean + width * width / 12.0
        noise = np.broadcast_to(noise, (n,))
        return np.where(ctx.invalid, np.inf, noise)
