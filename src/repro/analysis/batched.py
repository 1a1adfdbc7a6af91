"""Batched candidate pricing: one call prices every single-node move.

:class:`BatchedAnalyzer` prices *n* single-node word-length moves of one
design for one :class:`~repro.analysis.incremental.IncrementalAnalyzer`.
It has two paths:

* Mean-square ``aa`` (and mean-square ``pna``, which propagates AA forms
  and reads AA's moments) runs a compiled NumPy program.  The engine's
  (unrolled) dataflow graph is compiled once per analyzed output into a
  straight-line program with a leading batch axis; every propagation
  rule of :class:`~repro.noisemodel.analyzer.DatapathNoiseAnalyzer`
  becomes a handful of array operations.  Every propagated error is an
  affine form over the lanes: an ``(n, 1)`` center and an ``(n, S)``
  coefficient matrix over one symbol layout fixed at compile time.  The
  layout holds the value forms' symbols, one column per source instance
  (``e_<inst>``), and one column per fresh-symbol site of each rule (a
  product's nonlinear term, a Chebyshev or reciprocal deviation, a
  selection blur).  Arrays stay single-lane wherever no move disturbs
  them.
* Every other batch (``ia``, ``taylor``, ``sna``, and any ``confidence``
  batch) goes to :meth:`IncrementalAnalyzer.probe_moves`, which commits
  the design and prices each move by one cone re-propagation over the
  committed errors.  ``ia`` cones run the engine's compiled scalar rules.

Bit-equivalence contract of the ``aa`` program
----------------------------------------------
The compiled program reproduces the scalar engine *exactly*:

* Value enclosures never depend on the assignment, so the program bakes
  in the engine's own value sweep as constants.
* Every error rule is evaluated with the same float operations in the
  same order as the scalar rule, so each batch lane carries the same
  center and coefficients the scalar analyzer would produce for that
  candidate (up to the sign of IEEE zeros, which no decision or moment
  depends on).  A symbol the scalar form drops as an exact zero is a
  zero column here, and adding zero is exact.
* Cross-symbol reductions (an affine radius, the AA variance) are
  ``math.fsum`` in both engines, once per lane.  It is correctly
  rounded, so the result depends neither on dict order nor on column
  order.  The rare nonlinear steps (``sqrt`` / ``exp`` / ``log``) call
  the scalar Chebyshev helpers once per lane.
* The scalar engine's structural-zero shortcuts (``_is_zero``) are
  mirrored with per-lane boolean "error is the float 0.0" masks.  The
  one domain check a zero lane can fail, the ``sqrt`` denominator of an
  operand whose enclosure starts at 0, is skipped on exactly the lanes
  the scalar engine skips it.  The others cannot fire on a zero lane (a
  ``log`` operand's enclosure is positive, and a divisor's excludes 0
  once the value sweep succeeded), so they carry no mask.
* A lane whose candidate violates a domain premise (divisor enclosure
  swallowing zero, ``sqrt``/``log`` crossing the boundary) is priced at
  ``inf`` — the same verdict :meth:`OptimizationProblem._analyze` gives
  when the scalar engine raises — and its arrays are sanitized so the
  garbage cannot leak into other lanes.  A value sweep that already
  violates a premise prices every lane ``inf``.

An optimization problem builds its pricer over its own search engine.
The problem memoizes every lane it prices and serves a later evaluation
of a priced move from that lane, so a greedy descent analyzes none of
the shaves it accepts.  It commits each accepted design to the engine
only when the engine is next used, an analysis or a probing batch, so a
compiled ``aa`` descent commits once per descent, not once per step.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.dfg.node import OpType
from repro.dfg.unroll import base_name as _base_name
from repro.errors import DivisionByZeroIntervalError, DomainError, NoiseModelError
from repro.fixedpoint.quantize import quantization_error_bounds, quantize
from repro.intervals.interval import Interval
from repro.intervals.linearize import exp_linearization, log_linearization, sqrt_linearization
from repro.noisemodel.analyzer import propagation_algebra
from repro.noisemodel.assignment import WordLengthAssignment, moved_format

__all__ = ["BatchedAnalyzer"]

#: Propagation algebras with a compiled program (mean-square power only).
_COMPILED = ("aa",)

# ---------------------------------------------------------------------- #
# affine forms over the lanes (the compiled ``aa`` program)
# ---------------------------------------------------------------------- #
def _fsum_rows(terms: np.ndarray, support: np.ndarray | None) -> np.ndarray:
    """Per-lane ``math.fsum`` of ``terms`` over the ``support`` columns, as ``(L, 1)``.

    Columns outside the support are zero on every lane, and a correctly
    rounded sum does not change when zeros join or leave it.
    """
    if support is not None:
        terms = terms[:, support]
    if terms.shape[1] == 1:
        return terms
    return np.array(list(map(math.fsum, terms.tolist()))).reshape(-1, 1)


class _Lanes:
    """One affine form per lane: ``center + coeffs @ eps``.

    ``center`` is ``(L, 1)`` and ``coeffs`` ``(L, S)``, with ``L`` either 1
    (no move reaches the form) or the batch size.  ``zero`` is the per-lane
    "error is the float 0.0" mask of a node's error (``None`` on
    intermediate forms).  ``support`` lists the columns that can be
    non-zero (``None``: all).  The radius, ``AffineForm.radius`` per lane,
    is computed once, on first use.
    """

    __slots__ = ("center", "coeffs", "zero", "support", "_radius")

    def __init__(
        self,
        center: np.ndarray,
        coeffs: np.ndarray,
        zero: np.ndarray | None = None,
        support: np.ndarray | None = None,
        radius: np.ndarray | None = None,
    ) -> None:
        self.center = center
        self.coeffs = coeffs
        self.zero = zero
        self.support = support
        self._radius = radius

    def radius(self) -> np.ndarray:
        if self._radius is None:
            self._radius = _fsum_rows(np.abs(self.coeffs), self.support)
        return self._radius

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``AffineForm.to_interval`` per lane: ``center -/+ radius``."""
        radius = self.radius()
        return self.center - radius, self.center + radius


class _AffineContext:
    """Per-execution scratch shared by the compiled ``aa`` steps."""

    __slots__ = ("zero", "false", "invalid")

    def __init__(self, n: int, width: int) -> None:
        self.false = np.zeros((1, 1), dtype=bool)
        self.zero = _Lanes(
            np.zeros((1, 1)), np.zeros((1, width)), np.ones((1, 1), dtype=bool),
            np.zeros(0, dtype=np.intp), np.zeros((1, 1)),
        )
        self.invalid = np.zeros((n, 1), dtype=bool)


def _source_lanes(
    center: Any, radius: Any, column: int, width: int, support: np.ndarray
) -> _Lanes:
    """A source leaf's error ``AffineForm(center, {e_<inst>: radius})`` over the lanes."""
    center = np.array(center, dtype=np.float64).reshape(-1, 1)
    radius = np.array(radius, dtype=np.float64).reshape(-1, 1)
    coeffs = np.zeros((center.shape[0], width))
    coeffs[:, column : column + 1] = radius
    return _Lanes(center, coeffs, np.zeros((1, 1), dtype=bool), support, radius)


def _aa_add(a: _Lanes, b: _Lanes, support: np.ndarray) -> _Lanes:
    """``a + b``: per-symbol sums (a missing symbol adds an exact zero)."""
    return _Lanes(a.center + b.center, a.coeffs + b.coeffs, support=support)


def _aa_mul(x: _Lanes, y: _Lanes, site: int, support: np.ndarray) -> _Lanes:
    """``AffineForm.__mul__``: ``x0*y_i + y0*x_i`` per symbol, ``rad(x)*rad(y)`` on ``site``.

    The scalar shortcut for a term-free operand (a plain scale) gives the
    same floats: the other operand's missing coefficients add exact zeros
    and the linearization term is zero.
    """
    coeffs = x.center * y.coeffs + y.center * x.coeffs
    coeffs[:, site : site + 1] = x.radius() * y.radius()
    return _Lanes(x.center * y.center, coeffs, support=support)


def _aa_reciprocal(
    x: _Lanes, site: int, support: np.ndarray
) -> Tuple[_Lanes, np.ndarray]:
    """``AffineForm.reciprocal`` per lane, and the lanes whose enclosure holds zero.

    Those lanes raise ``DivisionByZeroIntervalError`` in the scalar engine;
    here they compute from the dummy enclosure ``[1, 1]``, and the caller
    prices them ``inf`` and clears them.
    """
    lo, hi = x.bounds()
    bad = (lo <= 0.0) & (hi >= 0.0)
    a = np.where(bad, 1.0, lo)
    b = np.where(bad, 1.0, hi)
    alpha = -1.0 / (a * b)
    root = np.sqrt(a * b)
    ends = 1.0 / a + 1.0 / b
    positive = a > 0
    d_max = np.where(positive, ends, -2.0 / root)
    d_min = np.where(positive, 2.0 / root, ends)
    coeffs = x.coeffs * alpha
    coeffs[:, site : site + 1] = 0.5 * (d_max - d_min)
    center = x.center * alpha + 0.5 * (d_max + d_min)
    return _Lanes(center, coeffs, support=support), bad


def _aa_chebyshev(
    x: _Lanes,
    linearize: Callable[[float, float], Any],
    point: Callable[[float], float],
    site: int,
    support: np.ndarray,
) -> Tuple[_Lanes, np.ndarray]:
    """``AffineForm.sqrt`` / ``exp`` / ``log`` per lane, and the domain-failure lanes.

    The shared linearization helper runs once per lane on that lane's
    enclosure, exactly as the scalar method calls it.  The min-max line
    ``alpha*x + zeta +/- delta`` is kept where its enclosure is no wider
    than the exact image; elsewhere the image is wrapped in the same
    fresh column (``_tightest_selection``).  A point enclosure gives the
    constant ``point(lo)``.  A lane whose helper raises ``DomainError``
    gets zeros; the caller prices it ``inf``.
    """
    lo, hi = x.bounds()
    rows = []
    for a, b in zip(lo[:, 0].tolist(), hi[:, 0].tolist()):
        try:
            line = linearize(a, b)
        except DomainError:
            rows.append((0.0, 0.0, 0.0, 0.0, 0.0, 2.0))
            continue
        if line is None:
            value = point(a)
            rows.append((0.0, 0.0, 0.0, value, value, 1.0))
        else:
            alpha, zeta, delta, exact = line
            rows.append((alpha, zeta, delta, exact.lo, exact.hi, 0.0))
    table = np.array(rows)
    alpha, zeta, delta, exact_lo, exact_hi, kind = (table[:, k : k + 1] for k in range(6))
    line_center = x.center * alpha + zeta
    line = x.coeffs * alpha
    line[:, site : site + 1] = delta
    line_radius = _fsum_rows(np.abs(line), support)
    keep = (kind == 0.0) & (
        (line_center + line_radius) - (line_center - line_radius) <= exact_hi - exact_lo
    )
    image_radius = 0.5 * (exact_hi - exact_lo)
    image_center = np.where(kind == 1.0, exact_lo, 0.5 * (exact_lo + exact_hi))
    coeffs = np.where(keep, line, 0.0)
    coeffs[:, site : site + 1] = np.where(keep, delta, image_radius)
    return (
        _Lanes(
            np.where(keep, line_center, image_center),
            coeffs,
            support=support,
            radius=np.where(keep, line_radius, image_radius),
        ),
        kind == 2.0,
    )


def _aa_clear(x: _Lanes, clear: np.ndarray, zero: np.ndarray, support: np.ndarray) -> _Lanes:
    """``x`` as a node error with mask ``zero``; lanes in ``clear`` set to exact zeros."""
    if not clear.any():
        return _Lanes(x.center, x.coeffs, zero, support, x._radius)
    return _Lanes(
        np.where(clear, 0.0, x.center), np.where(clear, 0.0, x.coeffs), zero, support
    )


def _aa_select(
    first: np.ndarray | bool,
    second: np.ndarray | bool,
    a: _Lanes,
    b: _Lanes,
    rest_center: np.ndarray,
    rest_coeffs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per lane: ``a`` where ``first``, else ``b`` where ``second``, else the rest."""
    return (
        np.where(first, a.center, np.where(second, b.center, rest_center)),
        np.where(first, a.coeffs, np.where(second, b.coeffs, rest_coeffs)),
    )


#: Fresh-symbol sites per op in the compiled ``aa`` rules (one column each).
_AA_SITES = {
    OpType.SQUARE: 2,  # va * ea, ea.square()
    OpType.MUL: 3,  # va * eb, vb * ea, ea * eb
    OpType.DIV: 3,  # exact * eb, 1 / denominator, numerator * (1 / denominator)
    OpType.SQRT: 3,  # sqrt(va + ea), 1 / denominator, ea * (1 / denominator)
    OpType.EXP: 2,  # exp(ea), value * (exp(ea) - 1)
    OpType.LOG: 3,  # 1 / va, ea * (1 / va), log(ea / va + 1)
    OpType.ABS: 1,  # the sign blur
    OpType.MIN: 1,  # the selection blur
    OpType.MAX: 1,
    OpType.MUX: 1,  # the branch hull
}


#: Ops whose ``aa`` error rule multiplies by value forms (the others read
#: only value enclosures).
_AA_VALUE_READERS = frozenset(
    (OpType.SQUARE, OpType.MUL, OpType.DIV, OpType.SQRT, OpType.EXP, OpType.LOG)
)


class _Program:
    """One compiled ``aa`` output: an ordered list of vectorized error rules.

    ``steps`` is a list of ``(instance, source_base, column, fn)``: ``fn``
    maps the error environment to the node's pre-quantization error;
    ``source_base`` names the caller-level node whose per-candidate own
    error is added afterwards (``None`` for source-free instances), and
    ``column`` is that source's symbol column (a source leaf has no
    ``fn``: its error is its own error alone).
    ``sources`` is the set of source bases; ``support`` maps each
    instance to the columns its error can use, of ``width`` in all, and
    ``leaves`` caches unmoved source leaves per own error.
    ``failed`` carries the value-sweep exception for graphs whose value
    enclosures already violate a domain premise — every candidate then
    prices to ``inf``, matching the scalar engine's behavior.
    """

    __slots__ = ("target", "steps", "sources", "support", "width", "leaves", "failed")

    def __init__(
        self,
        target: str,
        steps: List[Tuple[str, str | None, int | None, Callable[..., Any]]],
        support: Mapping[str, np.ndarray] | None = None,
        width: int = 0,
        failed: Exception | None = None,
    ) -> None:
        self.target = target
        self.steps = steps
        self.sources = frozenset(step[1] for step in steps if step[1] is not None)
        self.support = support or {}
        self.width = width
        self.leaves: Dict[Tuple[str, float, float], "_Lanes"] = {}
        self.failed = failed


class BatchedAnalyzer:
    """The batched move pricer of one incremental engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.analysis.incremental.IncrementalAnalyzer` this
        pricer compiles from and probes.  The ``aa`` compiler reads its
        analyzer's working graph, topological order, ancestor closures
        and source table, and takes value enclosures from the engine's
        own AA sweep.  A probed batch commits the priced design as the
        engine's baseline (:meth:`IncrementalAnalyzer.probe_moves`).
    ranges:
        Per-node value ranges.  Each move is coverage-widened exactly
        like :meth:`OptimizationProblem.evaluate` widens a candidate, so
        batched prices match evaluated prices bit for bit.
    """

    def __init__(self, engine: Any, ranges: Mapping[str, Interval]) -> None:
        self._engine = engine
        self._analyzer = engine.analyzer
        self.node_ranges = dict(ranges)
        self._programs: Dict[str, _Program] = {}
        self._own_cache: Dict[Tuple[str, int, int, bool], Tuple[float, float]] = {}
        self._widened: Dict[Tuple[str, int, int, bool, int], Any] = {}
        #: Compiled ``aa`` lane passes (n candidates each) — perf telemetry.
        self.batched_calls = 0
        #: Move probes on the incremental engine: one per priceable lane of
        #: every batch that is not mean-square ``aa`` / ``pna``.
        self.fallback_probes = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def price_moves(
        self,
        assignment: WordLengthAssignment,
        moves: Sequence[Tuple[str, int]],
        method: str,
        output: str | None = None,
        confidence: float | None = None,
    ) -> np.ndarray:
        """Price every single-node fractional-bit move in one pass.

        ``moves`` is a list of ``(node, new_fractional_bits)`` deltas
        against ``assignment`` (which must already be coverage-widened —
        every ``DesignEvaluation.assignment`` is — and carry the engine's
        quantization and overflow modes).  Each move is widened per-node
        exactly like :func:`ensure_range_coverage` would widen the whole
        shaved assignment, so lane *k* prices the very design
        ``evaluate(assignment.with_fractional_bits(*moves[k]))`` analyzes.
        A lane that cannot be analyzed — a domain violation, a negative
        fractional-bit count, or a range the widening cap cannot cover —
        prices ``inf``, the "infeasible, back away" verdict of the
        scalar path.

        This is the greedy inner loop.  Mean-square ``aa`` and ``pna``
        run the compiled program, whose arrays stay single-lane wherever
        no move disturbs them, so the pass costs one vectorized sweep.
        Every other batch (see :meth:`probes`) goes to
        :meth:`IncrementalAnalyzer.probe_moves`, which makes
        ``assignment`` the engine's baseline and re-propagates one cone
        per priceable lane, each counted in :attr:`fallback_probes`.
        """
        engine = self._engine
        if assignment.quantization is not engine.quantization or (
            assignment.overflow is not engine.overflow
        ):
            raise NoiseModelError(
                "batched pricing requires the engine's quantization and overflow modes"
            )
        formats = [self._moved_format(assignment, node, new_frac) for node, new_frac in moves]
        if self.probes(method, confidence):
            lanes = [(node, fmt) for (node, _), fmt in zip(moves, formats)]
            self.fallback_probes += sum(fmt is not None for fmt in formats)
            prices = engine.probe_moves(assignment, lanes, method, output, confidence)
            return np.array(prices, dtype=np.float64)
        n = len(moves)
        program = self._compile(self._analyzer._resolve_output(output))
        if program.failed is not None:
            return np.full(n, np.inf)
        # The widened format of every lane a move changes, per node; the
        # other lanes keep the node's format.
        moved: Dict[str, List[Tuple[int, Any]]] = {}
        unpriceable = np.zeros(n, dtype=bool)
        for j, ((node, _), widened) in enumerate(zip(moves, formats)):
            if widened is None:
                unpriceable[j] = True
            else:
                moved.setdefault(node, []).append((j, widened))
        noise = self._execute(program, assignment, moved, n)
        if unpriceable.any():
            noise = np.where(unpriceable, np.inf, noise)
        return noise

    @staticmethod
    def probes(method: str, confidence: float | None = None) -> bool:
        """Whether :meth:`price_moves` prices ``method`` by probing the engine.

        True for ``ia``, ``taylor`` / ``sna`` and every ``confidence``
        batch: the compiled program prices mean-square power of the
        ``aa`` algebra only.
        """
        return propagation_algebra(method) not in _COMPILED or confidence is not None

    # ------------------------------------------------------------------ #
    # candidate plumbing
    # ------------------------------------------------------------------ #
    def _moved_format(self, assignment: WordLengthAssignment, node: str, new_frac: int):
        """The widened format of move ``(node, new_frac)``, or ``None`` if it has none.

        The one widening rule of both :meth:`price_moves` paths:
        :func:`moved_format`, which applies :func:`covering_format`, the
        per-node rule of :func:`ensure_range_coverage`.  On an
        already-widened ``assignment`` only the moved node can need
        widening, so this is the format :func:`ensure_range_coverage`
        gives that node in the whole shaved assignment.  A move to
        negative fractional bits, or one whose range the widening cap
        cannot cover, has no format (its lane prices ``inf``).  Cached
        per node, format and move.
        """
        fmt = assignment.format_of(node)
        key = (node, fmt.integer_bits, fmt.fractional_bits, fmt.signed, new_frac)
        if key not in self._widened:
            self._widened[key] = moved_format(node, fmt, new_frac, self.node_ranges)
        return self._widened[key]

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def _compile(self, target: str) -> _Program:
        """The ``aa`` program of ``target``, compiled on first use."""
        program = self._programs.get(target)
        if program is None:
            try:
                values = self._engine._values_of("aa")
            except (DomainError, DivisionByZeroIntervalError) as exc:
                program = _Program(target, [], failed=exc)
            else:
                analyzer = self._analyzer
                closure = analyzer._ancestor_closure(target)
                order = [name for name in analyzer.topo_order if name in closure]
                program = self._compile_aa(target, order, values)
            self._programs[target] = program
        return program

    def _source_base(self, instance: str) -> str | None:
        """The caller-level node whose own error ``instance`` injects, if any."""
        return _base_name(instance) if instance in self._analyzer._sources_by_node else None

    def _compile_aa(
        self, target: str, order: Sequence[str], values: Mapping[str, Any]
    ) -> _Program:
        """The ``aa`` program of ``target``: its symbol layout, supports and rules.

        Columns follow the topological order: first every symbol of the
        closure's value forms, then per node its source symbol (keyed by
        name, as the scalar forms key it) and its fresh-symbol sites.  A
        node's support is every column its rule can make non-zero: its
        own column and sites, its error operands' supports, and the value
        forms it multiplies by.
        """
        analyzer = self._analyzer
        graph = analyzer.graph
        sources = analyzer._sources_by_node
        columns: Dict[Any, int] = {}

        def column(key: Any) -> int:
            return columns.setdefault(key, len(columns))

        for name in order:
            for symbol in values[name].terms:
                column(symbol)
        layout = []
        for name in order:
            node = graph.node(name)
            own = column(sources[name].symbol) if name in sources else None
            sites = [column((name, k)) for k in range(_AA_SITES.get(node.op, 0))]
            layout.append((node, own, sites))
        width = len(columns)

        value_lanes: Dict[str, _Lanes] = {}
        value_cols: Dict[str, set] = {}
        for name in order:
            form = values[name]
            row = np.zeros((1, width))
            cols = [columns[symbol] for symbol in form.terms]
            row[0, cols] = list(form.terms.values())
            value_cols[name] = set(cols)
            value_lanes[name] = _Lanes(
                np.array([[form.center]]), row, radius=np.array([[form.radius]])
            )

        error_cols: Dict[str, set] = {}
        support: Dict[str, np.ndarray] = {}
        steps = []
        for node, own, sites in layout:
            name = node.name
            cols = set(sites)
            if own is not None:
                cols.add(own)
            operands = node.inputs[1:] if node.op is OpType.MUX else node.inputs
            for operand in operands:
                cols |= error_cols[operand]
            if node.op in _AA_VALUE_READERS:
                for operand in (*node.inputs, name):
                    cols |= value_cols[operand]
            error_cols[name] = cols
            node_support = np.array(sorted(cols), dtype=np.intp)
            support[name] = node_support
            if own is not None and node.op in (OpType.INPUT, OpType.CONST):
                fn = None  # a source leaf: its own error, built by _execute_aa
            else:
                fn = self._compile_aa_step(node, values, value_lanes, sites, node_support, width)
            steps.append((name, self._source_base(name), own, fn))
        return _Program(target, steps, support=support, width=width)

    @staticmethod
    def _compile_aa_step(
        node: Any,
        values: Mapping[str, Any],
        V: Mapping[str, _Lanes],
        sites: Sequence[int],
        support: np.ndarray,
        width: int,
    ) -> Callable[[Dict[str, _Lanes], _AffineContext], _Lanes]:
        """One node's AA error rule as a closure over its value forms.

        Each closure mirrors ``DatapathNoiseAnalyzer._error_rule`` and the
        :class:`~repro.intervals.affine.AffineForm` arithmetic it calls —
        same formulas, same evaluation order, same branch precedence —
        with the batch axis broadcast through every operation, each fresh
        symbol on its own ``sites`` column, and the scalar structural-zero
        shortcuts carried as per-lane masks.
        """
        op = node.op
        name = node.name

        if op in (OpType.INPUT, OpType.CONST):

            def rule_leaf(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                return ctx.zero

            return rule_leaf

        if (
            op is OpType.OUTPUT
            or (op in (OpType.MIN, OpType.MAX) and node.inputs[0] == node.inputs[1])
            or (op is OpType.MUX and node.inputs[1] == node.inputs[2])
        ):
            a = node.inputs[0] if op is not OpType.MUX else node.inputs[1]

            def rule_forward(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                return E[a]

            return rule_forward

        if op is OpType.NEG:
            a = node.inputs[0]

            def rule_neg(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                e = E[a]
                return _Lanes(-e.center, -e.coeffs, e.zero, support, e._radius)

            return rule_neg

        if op is OpType.SQUARE:
            a = node.inputs[0]
            va = V[a]
            s_mul, s_square = sites

            def rule_square(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                # 2.0 * (va * ea) + ea.square()
                e = E[a]
                linear = _aa_mul(va, e, s_mul, support)
                radius = e.radius()
                half = 0.5 * radius * radius
                square = (2.0 * e.center) * e.coeffs
                square[:, s_square : s_square + 1] = half
                center = 2.0 * linear.center + (e.center * e.center + half)
                return _Lanes(center, 2.0 * linear.coeffs + square, e.zero, support)

            return rule_square

        if op in (OpType.ADD, OpType.SUB):
            a, b = node.inputs
            subtract = op is OpType.SUB

            def rule_addsub(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                ea, eb = E[a], E[b]
                if subtract:
                    center = ea.center - eb.center
                    coeffs = ea.coeffs - eb.coeffs
                else:
                    center = ea.center + eb.center
                    coeffs = ea.coeffs + eb.coeffs
                return _Lanes(center, coeffs, ea.zero & eb.zero, support)

            return rule_addsub

        if op is OpType.MUL:
            a, b = node.inputs
            va, vb = V[a], V[b]
            s1, s2, s3 = sites

            def rule_mul(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                # va * eb + vb * ea + ea * eb, summed left to right
                ea, eb = E[a], E[b]
                t1 = _aa_mul(va, eb, s1, support)
                t2 = _aa_mul(vb, ea, s2, support)
                t3 = _aa_mul(ea, eb, s3, support)
                return _Lanes(
                    (t1.center + t2.center) + t3.center,
                    (t1.coeffs + t2.coeffs) + t3.coeffs,
                    ea.zero & eb.zero,
                    support,
                )

            return rule_mul

        if op is OpType.DIV:
            a, b = node.inputs
            vb, exact = V[b], V[name]
            s1, s2, s3 = sites

            def rule_div(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                # (ea - exact * eb) * (1 / (vb + eb))
                ea, eb = E[a], E[b]
                scaled = _aa_mul(exact, eb, s1, support)
                numerator = _Lanes(
                    ea.center - scaled.center, ea.coeffs - scaled.coeffs, support=support
                )
                inverse, bad = _aa_reciprocal(_aa_add(vb, eb, support), s2, support)
                zero = ea.zero & eb.zero
                ctx.invalid |= bad
                out = _aa_mul(numerator, inverse, s3, support)
                return _aa_clear(out, bad | zero, zero, support)

            return rule_div

        if op is OpType.SQRT:
            a = node.inputs[0]
            va, value = V[a], V[name]
            s1, s2, s3 = sites

            def rule_sqrt(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                # ea * (1 / (sqrt(va + ea) + value))
                e = E[a]
                root, bad = _aa_chebyshev(
                    _aa_add(va, e, support), sqrt_linearization, math.sqrt, s1, support
                )
                inverse, bad_den = _aa_reciprocal(_aa_add(root, value, support), s2, support)
                bad = (bad | bad_den) & ~e.zero
                ctx.invalid |= bad
                out = _aa_mul(e, inverse, s3, support)
                return _aa_clear(out, bad | e.zero, e.zero, support)

            return rule_sqrt

        if op is OpType.EXP:
            a = node.inputs[0]
            value = V[name]
            s1, s2 = sites

            def rule_exp(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                # value * (exp(ea) - 1.0)
                e = E[a]
                grown, _never = _aa_chebyshev(e, exp_linearization, math.exp, s1, support)
                grown = _Lanes(
                    grown.center - 1.0, grown.coeffs, support=support, radius=grown._radius
                )
                return _aa_clear(_aa_mul(value, grown, s2, support), e.zero, e.zero, support)

            return rule_exp

        if op is OpType.LOG:
            a = node.inputs[0]
            s1, s2, s3 = sites
            # V[a]'s enclosure is positive: the value sweep took its log.
            inverse, _never = _aa_reciprocal(V[a], s1, support)

            def rule_log(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                # log(ea * (1 / va) + 1.0)
                e = E[a]
                ratio = _aa_mul(e, inverse, s2, support)
                inner = _Lanes(
                    ratio.center + 1.0, ratio.coeffs, support=support, radius=ratio._radius
                )
                out, bad = _aa_chebyshev(inner, log_linearization, math.log, s3, support)
                ctx.invalid |= bad
                return _aa_clear(out, bad | e.zero, e.zero, support)

            return rule_log

        if op is OpType.ABS:
            a = node.inputs[0]
            operand = values[a].to_interval()
            lo_nonneg = operand.lo >= 0.0
            hi_nonpos = operand.hi <= 0.0
            (site,) = sites

            def rule_abs(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                # ea, -ea, or the blur AffineForm(0, {abs: |ea|})
                e = E[a]
                lo, hi = e.bounds()
                c1 = (operand.lo + lo >= 0.0) if lo_nonneg else False
                c2 = (operand.hi + hi <= 0.0) if hi_nonpos else False
                decided = c1 | c2
                magnitude = np.maximum(np.abs(lo), np.abs(hi))
                sign = np.where(c1, 1.0, np.where(c2, -1.0, 0.0))
                coeffs = e.coeffs * sign
                coeffs[:, site : site + 1] = np.where(decided, 0.0, magnitude)
                return _Lanes(
                    e.center * sign,
                    coeffs,
                    e.zero,
                    support,
                    np.where(decided, e.radius(), magnitude),
                )

            return rule_abs

        if op in (OpType.MIN, OpType.MAX):
            a, b = node.inputs
            diff = values[a].to_interval() - values[b].to_interval()
            is_min = op is OpType.MIN
            diff_lo_nonneg = diff.lo >= 0.0
            diff_hi_nonpos = diff.hi <= 0.0
            (site,) = sites

            def rule_minmax(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                ea, eb = E[a], E[b]
                alo, ahi = ea.bounds()
                blo, bhi = eb.bounds()
                ed_lo = alo - bhi
                ed_hi = ahi - blo
                c1 = (diff.lo + ed_lo >= 0.0) if diff_lo_nonneg else False
                c2 = (diff.hi + ed_hi <= 0.0) if diff_hi_nonpos else False
                # a >= b in both datapaths: min forwards e_b, max e_a.
                first, second = (eb, ea) if is_min else (ea, eb)
                # otherwise (ea + eb + AffineForm(0, {sel: |ea - eb|})) * 0.5
                blend = (ea.coeffs + eb.coeffs) * 0.5
                blend[:, site : site + 1] = np.maximum(np.abs(ed_lo), np.abs(ed_hi)) * 0.5
                center, coeffs = _aa_select(
                    c1, c2, first, second, (ea.center + eb.center) * 0.5, blend
                )
                zero = (
                    (ea.zero & eb.zero)
                    | (c1 & first.zero)
                    | (~np.asarray(c1) & c2 & second.zero)
                )
                return _Lanes(center, coeffs, zero, support)

            return rule_minmax

        if op is OpType.MUX:
            s, a, b = node.inputs
            selector = values[s].to_interval()
            enc_a, enc_b = values[a].to_interval(), values[b].to_interval()
            sel_lo_nonneg = selector.lo >= 0.0
            sel_hi_neg = selector.hi < 0.0
            (site,) = sites

            def rule_mux(E: Dict[str, _Lanes], ctx: _AffineContext) -> _Lanes:
                es, ea, eb = E[s], E[a], E[b]
                slo, shi = es.bounds()
                alo, ahi = ea.bounds()
                blo, bhi = eb.bounds()
                c1 = (selector.lo + slo >= 0.0) if sel_lo_nonneg else False
                c2 = (selector.hi + shi < 0.0) if sel_hi_neg else False
                # otherwise AffineForm(mid, {mux: rad}) of the hull of both
                # branch errors (and the branch-swap residuals)
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
                hull = np.zeros((h_lo.shape[0], width))
                hull[:, site : site + 1] = 0.5 * (h_hi - h_lo)
                center, coeffs = _aa_select(c1, c2, ea, eb, 0.5 * (h_lo + h_hi), hull)
                zero = (c1 & ea.zero) | (~np.asarray(c1) & c2 & eb.zero)
                return _Lanes(center, coeffs, zero, support)

            return rule_mux

        raise NoiseModelError(
            f"unsupported operation {op!r} at node {name!r} in batched noise propagation"
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _own_errors(
        self,
        program: _Program,
        assignment: WordLengthAssignment,
        moved: Mapping[str, Sequence[Tuple[int, Any]]],
        n: int,
    ) -> Dict[str, Tuple[Any, Any]]:
        """The own quantization error of every source base the program reads.

        A base no move changes has one format on every lane, so its error
        is a pair of floats; a moved base gets a pair of ``(n, 1)`` per-lane
        arrays.
        """
        own: Dict[str, Tuple[Any, Any]] = {}
        for base in program.sources:
            pair = self._own_pair(base, assignment.formats[base])
            lanes = moved.get(base)
            if lanes is not None:
                table = np.full((n, 2), pair)
                for j, fmt in lanes:
                    table[j] = self._own_pair(base, fmt)
                pair = (table[:, 0:1], table[:, 1:2])
            own[base] = pair
        return own

    def _own_pair(self, base: str, fmt: Any) -> Tuple[float, float]:
        """One source's own error under ``fmt``, cached per base and format.

        The error is ``AffineForm(midpoint, {e_<inst>: radius})`` of the
        source's error interval, read as ``(midpoint, radius)``.  A
        non-constant source's interval is
        :func:`quantization_error_bounds`; a constant carries its
        deterministic rounding residue, from the scalar :func:`quantize`.
        """
        key = (base, fmt.integer_bits, fmt.fractional_bits, fmt.signed)
        pair = self._own_cache.get(key)
        if pair is None:
            node = self._analyzer.original.node(base)
            quantization = self._engine.quantization
            if node.op is OpType.CONST:
                value = float(node.value)
                lo = hi = quantize(value, fmt, quantization, self._engine.overflow) - value
            else:
                interval = quantization_error_bounds(fmt, quantization)
                lo, hi = interval.lo, interval.hi
            pair = (0.5 * (lo + hi), 0.5 * (hi - lo))
            self._own_cache[key] = pair
        return pair

    def _execute(
        self,
        program: _Program,
        assignment: WordLengthAssignment,
        moved: Mapping[str, Sequence[Tuple[int, Any]]],
        n: int,
    ) -> np.ndarray:
        """One compiled pass over ``n`` lanes: ``center² + fsum(c²)/3`` of each.

        A source's own error is ``AffineForm(midpoint, {e_<inst>: radius})``
        of its error interval, added to the rule's result; a source leaf's
        error is that form alone.
        """
        self.batched_calls += 1
        own = self._own_errors(program, assignment, moved, n)
        with np.errstate(all="ignore"):
            ctx = _AffineContext(n, program.width)
            support = program.support
            leaves = program.leaves
            E: Dict[str, _Lanes] = {}
            for name, source_base, column, fn in program.steps:
                if fn is None:
                    # A source leaf's error is its own error alone; an unmoved
                    # leaf's is the same on every call that gives it its format.
                    own_center, own_radius = own[source_base]
                    key = (name, own_center, own_radius) if isinstance(own_center, float) else None
                    err = leaves.get(key) if key is not None else None
                    if err is None:
                        err = _source_lanes(
                            own_center, own_radius, column, program.width, support[name]
                        )
                        if key is not None:
                            leaves[key] = err
                else:
                    err = fn(E, ctx)
                    if source_base is not None:
                        own_center, own_radius = own[source_base]
                        center = err.center + own_center
                        coeffs = err.coeffs
                        lanes = center.shape[0]
                        if coeffs.shape[0] < lanes:
                            coeffs = np.repeat(coeffs, lanes, axis=0)
                        else:
                            coeffs = coeffs.copy()
                        coeffs[:, column : column + 1] += own_radius
                        err = _Lanes(center, coeffs, ctx.false, support[name])
                E[name] = err
            out = E[program.target]
            variance = _fsum_rows(out.coeffs * out.coeffs, out.support) / 3.0
            noise = out.center * out.center + variance
            noise = np.broadcast_to(noise[:, 0], (n,))
            return np.where(ctx.invalid[:, 0], np.inf, noise)
