"""Datapath-level noise analysis: one engine, four enclosure algebras.

:class:`DatapathNoiseAnalyzer` propagates *pairs* ``(value, error)``
through a dataflow graph in topological order.  ``value`` encloses the
infinite-precision result of a node; ``error`` encloses the deviation of
the bit-true fixed-point result from it.  The propagation rules are the
exact algebraic expansions, so every method that evaluates them in a
sound enclosure algebra yields sound error bounds:

* ``add``:     ``e = e_a + e_b (+ q)``
* ``sub``:     ``e = e_a - e_b (+ q)``
* ``mul``:     ``(a + e_a)(b + e_b) - ab = a e_b + b e_a + e_a e_b (+ q)``
* ``square``:  ``(a + e_a)^2 - a^2 = 2 a e_a + e_a^2 (+ q)``
* ``div``:     ``(e_a - (a/b) e_b) / (b + e_b) (+ q)`` — the exact
  expansion of ``(a + e_a)/(b + e_b) - a/b`` in a form that is *linear*
  in the errors, so enclosure algebras that linearize division (AA,
  Taylor) keep the result O(e) instead of leaving an O(1) residual from
  two independently-approximated divisions
* ``neg``:     ``e = -e_a``
* ``sqrt``:    ``e = e_a / (sqrt(a + e_a) + sqrt(a)) (+ q)`` — the exact
  rationalized expansion of ``sqrt(a + e_a) - sqrt(a)``, again linear in
  the error
* ``exp``:     ``e = exp(a) (exp(e_a) - 1) (+ q)``
* ``log``:     ``e = log(1 + e_a / a) (+ q)``
* ``abs``:     ``e = e_a`` / ``-e_a`` when the operand's sign (with its
  error) is decided by the enclosures; otherwise the reverse triangle
  inequality ``| |a+e| - |a| | <= |e|`` bounds the error symmetrically
* ``min/max``: ``e = e_b`` / ``e_a`` when the enclosures decide which
  operand is selected in both the exact and the quantized datapath;
  otherwise the identity ``min(x,y) = (x + y - |x - y|)/2`` is used with
  the abs bound above, which stays O(e)
* ``mux``:     the selected branch's error when the select's sign (with
  its error) is decided; otherwise the hull over both branch errors plus
  — when the select error can flip the comparison — the branch-swap
  residuals ``(b + e_b) - a`` and ``(a + e_a) - b``

where ``q`` is the node's own quantization error (a
:class:`~repro.noisemodel.sources.QuantizationSource`) when the node
carries a fixed-point format.

The same engine runs in four algebras, selected by name:

* ``"ia"`` — plain :class:`~repro.intervals.interval.Interval` bounds;
* ``"aa"`` — :class:`~repro.intervals.affine.AffineForm`, keeping
  first-order correlation between value and error terms;
* ``"taylor"`` — degree-2 :class:`~repro.intervals.taylor.TaylorModel`;
* ``"sna"`` — :class:`~repro.histogram.pdf.HistogramPDF` distributions
  (the paper's Symbolic Noise Analysis reading: an interval operand is a
  uniform random value, every quantization point contributes its error
  PDF, and the output is a full error distribution, not just bounds).

Sequential graphs are analyzed over a finite horizon by unrolling
(:mod:`repro.dfg.unroll`), which makes the bounds directly comparable to
a zero-initial-state time-stepped simulation of the same length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.dfg.unroll import UnrolledGraph, unroll_sequential
from repro.dfg.unroll import base_name as _base_name
from repro.errors import DomainError, NoiseModelError
from repro.histogram.pdf import HistogramPDF
from repro.histogram.statistics import summarize
from repro.intervals.affine import AffineContext, AffineForm
from repro.intervals.interval import Interval
from repro.intervals.taylor import TaylorModel
from repro.noisemodel.assignment import WordLengthAssignment
from repro.noisemodel.gains import transfer_gains
from repro.noisemodel.sources import QuantizationSource, build_sources, sources_by_node
from repro.utils.mathutils import summed

__all__ = [
    "DatapathNoiseAnalyzer",
    "NoiseReport",
    "ANALYSIS_METHODS",
    "PDF_METHODS",
    "propagation_algebra",
]

ANALYSIS_METHODS = ("ia", "aa", "taylor", "sna", "pna")

#: Methods whose propagated error carries a full distribution, i.e. the
#: ones a fractional confidence level can be evaluated against.
PDF_METHODS = ("pna", "sna")

#: Methods whose propagation reuses another method's term algebra.  The
#: probabilistic method ("pna") propagates plain affine forms — the shared
#: noise symbols ARE its dependency tracking (correlated reconvergent
#: paths cancel symbolically) — and only diverges from AA at report /
#: confidence-quantile time, where the affine form is read as a sum of
#: independent uniform noise symbols and convolved into an error PDF.
_PROPAGATION_ALGEBRA = {"pna": "aa"}


def propagation_algebra(method: str) -> str:
    """The term algebra a method propagates ("pna" rides the AA rules)."""
    return _PROPAGATION_ALGEBRA.get(method, method)


@dataclass(frozen=True)
class NoiseReport:
    """Summary of one noise analysis of one output.

    ``bounds`` is a sound worst-case enclosure of the output error for the
    IA / AA / Taylor methods; for SNA it is the support of the propagated
    error distribution.  ``mean`` / ``variance`` / ``noise_power`` follow
    each method's natural probabilistic reading (uniform over the bounds
    for IA, independent uniform noise symbols for AA and Taylor, the
    histogram's own moments for SNA).
    """

    method: str
    output: str
    bounds: Interval
    mean: float
    variance: float
    noise_power: float
    source_count: int
    contributions: Dict[str, float] = field(default_factory=dict)
    error_pdf: HistogramPDF | None = None

    @property
    def std(self) -> float:
        """Standard deviation of the error."""
        return math.sqrt(max(0.0, self.variance))

    def snr_db(self, signal_power: float) -> float:
        """Signal-to-noise ratio in dB for a given signal power."""
        if self.noise_power <= 0.0:
            return float("inf")
        if signal_power <= 0.0:
            return float("-inf")
        return 10.0 * math.log10(signal_power / self.noise_power)

    def as_row(self) -> dict:
        """Plain-dict view for tables and JSON reports."""
        return {
            "method": self.method,
            "lower": self.bounds.lo,
            "upper": self.bounds.hi,
            "mean": self.mean,
            "variance": self.variance,
            "noise_power": self.noise_power,
            "sources": self.source_count,
        }


class DatapathNoiseAnalyzer:
    """Propagates quantization errors of a fixed-point datapath.

    Parameters
    ----------
    graph:
        The dataflow graph (combinational or sequential).
    assignment:
        Per-node fixed-point formats plus quantization/overflow modes.
    input_ranges:
        Range of every external input (keyed by original input name).
    input_pdfs:
        Optional per-input PDFs for the SNA method; inputs without an
        entry are taken uniform over their range.
    horizon:
        Unrolling depth for sequential graphs (ignored for combinational
        ones).
    bins:
        Histogram granularity of the SNA method.
    """

    def __init__(
        self,
        graph: DFG,
        assignment: WordLengthAssignment,
        input_ranges: Mapping[str, Interval],
        input_pdfs: Mapping[str, HistogramPDF] | None = None,
        horizon: int = 8,
        bins: int = 32,
    ) -> None:
        missing = [name for name in graph.inputs() if name not in input_ranges]
        if missing:
            raise NoiseModelError(f"missing input ranges for: {', '.join(sorted(missing))}")
        self.original = graph
        self.assignment = assignment
        self.input_ranges = dict(input_ranges)
        self.input_pdfs = dict(input_pdfs or {})
        self.horizon = int(horizon)
        self.bins = int(bins)

        if graph.is_sequential:
            unrolled = unroll_sequential(graph, self.horizon)
            self.unrolled: UnrolledGraph | None = unrolled
            self.graph = unrolled.graph
            self.working_assignment = WordLengthAssignment(
                formats=unrolled.map_formats(assignment.formats),  # type: ignore[arg-type]
                quantization=assignment.quantization,
                overflow=assignment.overflow,
            )
        else:
            self.unrolled = None
            self.graph = graph
            self.working_assignment = assignment
        self.sources = build_sources(self.graph, self.working_assignment)
        self._sources_by_node = sources_by_node(self.sources)
        #: Topological order of the working (unrolled) graph, computed once.
        self.topo_order: Tuple[str, ...] = tuple(self.graph.topological_order())
        # transfer_gains over the IA value enclosures depends only on the
        # graph and input ranges, never on the word-length assignment, so
        # one profile per output serves every (re-)analysis.
        self._gain_cache: Dict[str, Any] = {}
        self._output_cache: Dict[str | None, str] = {}
        # Error terms for IA / Taylor / SNA depend only on (node, format):
        # re-analyses that revisit a format (bit-stealing probes toggle
        # between adjacent precisions constantly) reuse the built term
        # instead of re-deriving bounds/PDFs.  AA terms are excluded —
        # they are bound to a propagation's AffineContext and are cheap
        # to build anyway.
        self._error_term_cache: Dict[Tuple[str, str, Any], Any] = {}
        # SNA selection probabilities (min/max/mux) depend only on the
        # value distributions, never on the assignment: one per node.
        self._select_prob_cache: Dict[str, float] = {}
        self._ancestor_cache: Dict[str, frozenset] = {}
        # The pna confidence read resumes each convolution from the
        # previous one's shared prefix (repro.analysis.probabilistic).
        self._pna_chain: Any = None

    # ------------------------------------------------------------------ #
    def _resolve_output(self, output: str | None) -> str:
        cached = self._output_cache.get(output)
        if cached is not None:
            return cached
        resolved = self._resolve_output_uncached(output)
        self._output_cache[output] = resolved
        return resolved

    def _resolve_output_uncached(self, output: str | None) -> str:
        outputs = self.graph.outputs()
        if output is None:
            if not outputs:
                raise NoiseModelError(f"graph {self.graph.name!r} has no outputs")
            return outputs[0]
        if output in outputs:
            return output
        matches = [name for name in outputs if _base_name(name) == output]
        if len(matches) == 1:
            return matches[0]
        raise NoiseModelError(f"unknown output {output!r}; graph outputs: {outputs}")

    def _input_range(self, instance: str) -> Interval:
        return self.input_ranges[_base_name(instance)]

    def _input_pdf(self, instance: str) -> HistogramPDF:
        base = _base_name(instance)
        if base in self.input_pdfs:
            return self.input_pdfs[base].rebin(self.bins)
        interval = self.input_ranges[base]
        return HistogramPDF.uniform(interval.lo, interval.hi, bins=self.bins)

    # ------------------------------------------------------------------ #
    # per-algebra constructors
    # ------------------------------------------------------------------ #
    def _make_value(self, method: str, instance: str, context: AffineContext | None) -> Any:
        interval = self._input_range(instance)
        if method == "ia":
            return interval
        if method == "aa":
            assert context is not None
            return context.variable(instance, interval.lo, interval.hi)
        if method == "taylor":
            return TaylorModel.variable(instance, interval.lo, interval.hi)
        return self._input_pdf(instance)

    def _make_const(self, method: str, value: float, context: AffineContext | None) -> Any:
        if method == "ia":
            return Interval.point(value)
        if method == "aa":
            return AffineForm(value, {}, context)
        if method == "taylor":
            return TaylorModel.constant_model(value)
        return HistogramPDF.point(value)

    def _make_error_term(
        self, method: str, source: QuantizationSource, context: AffineContext | None
    ) -> Any:
        interval = source.error_interval
        if method == "ia":
            return interval
        if method == "aa":
            assert context is not None
            if interval.radius == 0.0:
                return AffineForm(interval.midpoint, {}, context)
            return AffineForm(interval.midpoint, {source.symbol: interval.radius}, context)
        key = (method, source.node, source.fmt)
        cached = self._error_term_cache.get(key)
        if cached is not None:
            return cached
        if method == "taylor":
            if interval.radius == 0.0:
                term: Any = TaylorModel.constant_model(interval.midpoint)
            else:
                term = TaylorModel(
                    constant=interval.midpoint, linear={source.symbol: interval.radius}
                )
        else:
            term = source.error_pdf(bins=self.bins)
        self._error_term_cache[key] = term
        return term

    # ------------------------------------------------------------------ #
    # the propagation sweep
    # ------------------------------------------------------------------ #
    def _propagate(
        self, method: str, target: str | None = None
    ) -> tuple[Dict[str, Any], Dict[str, Any], AffineContext | None]:
        """One full sweep: values for every node, errors for the target's cone.

        Restricting the error propagation to the ancestor closure of
        ``target`` changes nothing about the reported result (errors of
        non-ancestors cannot reach the output) but keeps the semantics
        identical to the incremental engine: a domain violation at a
        node that cannot influence the analyzed output does not abort
        the analysis.
        """
        context = AffineContext() if method == "aa" else None
        values: Dict[str, Any] = {}
        errors: Dict[str, Any] = {}
        restrict = None if target is None else self._ancestor_closure(target)
        for name in self.topo_order:
            node = self.graph.node(name)
            values[name] = self._value_of(method, name, node, values, context)
            if restrict is None or name in restrict:
                errors[name] = self._error_of(method, name, node, values, errors, context)
        return values, errors, context

    def _ancestor_closure(self, target: str) -> frozenset:
        """Nodes that can reach ``target`` (itself included), cached."""
        cached = self._ancestor_cache.get(target)
        if cached is not None:
            return cached
        seen = {target}
        stack = [target]
        while stack:
            for operand in self.graph.node(stack.pop()).inputs:
                if operand not in seen:
                    seen.add(operand)
                    stack.append(operand)
        closure = frozenset(seen)
        self._ancestor_cache[target] = closure
        return closure

    def _value_of(
        self,
        method: str,
        name: str,
        node: Any,
        values: Mapping[str, Any],
        context: AffineContext | None,
    ) -> Any:
        """Infinite-precision enclosure of one node (assignment-independent).

        Domain violations (``sqrt``/``log`` of an enclosure crossing the
        domain boundary) surface as a :class:`~repro.errors.DomainError`
        naming the offending node rather than NaN/inf enclosures.
        """
        try:
            return self._value_rule(method, name, node, values, context)
        except DomainError as exc:
            if exc.node is not None:
                raise
            raise DomainError(f"node {name!r} ({node.op.value}): {exc}", node=name) from exc

    def _value_rule(
        self,
        method: str,
        name: str,
        node: Any,
        values: Mapping[str, Any],
        context: AffineContext | None,
    ) -> Any:
        if node.op is OpType.INPUT:
            return self._make_value(method, name, context)
        if node.op is OpType.CONST:
            return self._make_const(method, float(node.value), context)
        if node.op is OpType.OUTPUT:
            return values[node.inputs[0]]
        if node.op is OpType.NEG:
            return -values[node.inputs[0]]
        if node.op is OpType.SQUARE:
            return _square(values[node.inputs[0]])
        if node.op is OpType.SQRT:
            return values[node.inputs[0]].sqrt()
        if node.op is OpType.EXP:
            return values[node.inputs[0]].exp()
        if node.op is OpType.LOG:
            return values[node.inputs[0]].log()
        if node.op is OpType.ABS:
            return abs(values[node.inputs[0]])
        if node.op is OpType.ADD:
            return values[node.inputs[0]] + values[node.inputs[1]]
        if node.op is OpType.SUB:
            return values[node.inputs[0]] - values[node.inputs[1]]
        if node.op is OpType.MUL:
            return values[node.inputs[0]] * values[node.inputs[1]]
        if node.op is OpType.DIV:
            return values[node.inputs[0]] / values[node.inputs[1]]
        if node.op in (OpType.MIN, OpType.MAX):
            a, b = node.inputs
            if a == b:  # min(x, x) == max(x, x) == x, exactly
                return values[a]
            if node.op is OpType.MIN:
                return values[a].minimum(values[b])
            return values[a].maximum(values[b])
        if node.op is OpType.MUX:
            s, a, b = node.inputs
            if a == b:  # both branches are the same signal
                return values[a]
            return self._mux_value(method, name, values[s], values[a], values[b], context)
        # DELAY cannot appear after unrolling
        raise NoiseModelError(
            f"unsupported operation {node.op!r} at node {name!r} in noise propagation; "
            f"the {method} analyzer knows no value rule for it"
        )

    def _mux_value(
        self,
        method: str,
        name: str,
        vs: Any,
        va: Any,
        vb: Any,
        context: AffineContext | None,
    ) -> Any:
        """Value enclosure of ``select >= 0 ? a : b`` per algebra.

        A sign-decided select collapses to the chosen branch.  Otherwise
        IA takes the hull, AA/Taylor model the selection as
        ``(a+b)/2 + (a-b)/2 * eps`` with a fresh ``[-1, 1]`` blend symbol
        (keeping partial correlation with both branches), and SNA blends
        the branch distributions with the select's sign probability.
        """
        selector = _enclosure_of(vs)
        if selector.lo >= 0.0:
            return va
        if selector.hi < 0.0:
            return vb
        if method == "ia":
            return va.hull(vb)
        if method == "aa":
            assert context is not None
            blend = AffineForm(0.0, {context.fresh("sel"): 1.0}, context)
            return (va + vb).scale(0.5) + (va - vb).scale(0.5) * blend
        if method == "taylor":
            blend = TaylorModel(0.0, {f"sel_{name}": 1.0})
            return (va + vb).scale(0.5) + (va - vb).scale(0.5) * blend
        p = 1.0 - vs.cdf(0.0)
        if p >= 1.0:
            return va
        if p <= 0.0:
            return vb
        return HistogramPDF.mixture([(va, p), (vb, 1.0 - p)], bins=self.bins)

    def _error_of(
        self,
        method: str,
        name: str,
        node: Any,
        values: Mapping[str, Any],
        errors: Mapping[str, Any],
        context: AffineContext | None,
    ) -> Any:
        """Error enclosure of one node from its operands' values and errors.

        Shared by the full sweep above and by the incremental engine
        (:class:`repro.analysis.incremental.IncrementalAnalyzer`), which
        re-invokes it only for nodes inside the cone of influence of a
        word-length change; both paths therefore produce the same floats.
        Domain violations name the offending node, like :meth:`_value_of`.
        """
        try:
            return self._error_rule(method, name, node, values, errors, context)
        except DomainError as exc:
            if exc.node is not None:
                raise
            raise DomainError(f"node {name!r} ({node.op.value}): {exc}", node=name) from exc

    def _error_rule(
        self,
        method: str,
        name: str,
        node: Any,
        values: Mapping[str, Any],
        errors: Mapping[str, Any],
        context: AffineContext | None,
    ) -> Any:
        source = self._sources_by_node.get(name)
        own = self._make_error_term(method, source, context) if source else None
        if node.op in (OpType.INPUT, OpType.CONST):
            return own if own is not None else 0.0
        if node.op is OpType.OUTPUT:
            return errors[node.inputs[0]]
        if node.op is OpType.NEG:
            ea = errors[node.inputs[0]]
            err = -ea if not _is_zero(ea) else 0.0
            return _add_error(err, own)
        if node.op is OpType.SQUARE:
            a = node.inputs[0]
            va, ea = values[a], errors[a]
            if _is_zero(ea):
                return _add_error(0.0, own)
            return self._sum_errors(method, [2.0 * (va * ea), _square(ea), own], context)
        if node.op in (OpType.ADD, OpType.SUB):
            a, b = node.inputs
            ea, eb = errors[a], errors[b]
            if node.op is OpType.SUB and not _is_zero(eb):
                eb = -eb
            return self._sum_errors(method, [ea, eb, own], context)
        if node.op is OpType.MUL:
            a, b = node.inputs
            va, vb = values[a], values[b]
            ea, eb = errors[a], errors[b]
            terms: List[Any] = []
            if not _is_zero(eb):
                terms.append(va * eb)
            if not _is_zero(ea):
                terms.append(vb * ea)
            if not (_is_zero(ea) or _is_zero(eb)):
                terms.append(ea * eb)
            terms.append(own)
            return self._sum_errors(method, terms, context)
        if node.op is OpType.DIV:
            a, b = node.inputs
            vb = values[b]
            ea, eb = errors[a], errors[b]
            exact = values[name]
            # (a+ea)/(b+eb) - a/b == (ea - (a/b)*eb) / (b+eb), which is
            # linear in the errors; evaluating the difference of the two
            # divisions directly would leave an O(1) linearization
            # residual in AA/Taylor because their approximation symbols
            # are independent and cannot cancel.
            if _is_zero(ea) and _is_zero(eb):
                return _add_error(0.0, own)
            numerator: Any = 0.0
            if not _is_zero(ea):
                numerator = ea
            if not _is_zero(eb):
                numerator = _add_error(numerator, -(exact * eb))
            denominator = vb if _is_zero(eb) else vb + eb
            return _add_error(numerator / denominator, own)
        if node.op is OpType.SQRT:
            a = node.inputs[0]
            va, ea = values[a], errors[a]
            if _is_zero(ea):
                return _add_error(0.0, own)
            # sqrt(a+e) - sqrt(a) == e / (sqrt(a+e) + sqrt(a)): exact and
            # linear in the error, so AA/Taylor keep it O(e); sqrt(a) is
            # the node's own (already propagated) value enclosure.
            denominator = (va + ea).sqrt() + values[name]
            return _add_error(ea / denominator, own)
        if node.op is OpType.EXP:
            a = node.inputs[0]
            ea = errors[a]
            if _is_zero(ea):
                return _add_error(0.0, own)
            # exp(a+e) - exp(a) == exp(a) * (exp(e) - 1); exp(a) is the
            # node's own (already propagated) value enclosure.
            return _add_error(values[name] * (ea.exp() - 1.0), own)
        if node.op is OpType.LOG:
            a = node.inputs[0]
            va, ea = values[a], errors[a]
            if _is_zero(ea):
                return _add_error(0.0, own)
            # log(a+e) - log(a) == log(1 + e/a)
            return _add_error((ea / va + 1.0).log(), own)
        if node.op is OpType.ABS:
            a = node.inputs[0]
            va, ea = values[a], errors[a]
            if _is_zero(ea):
                return _add_error(0.0, own)
            operand = _enclosure_of(va)
            err_enc = _enclosure_of(ea)
            if operand.lo >= 0.0 and operand.lo + err_enc.lo >= 0.0:
                return _add_error(ea, own)
            if operand.hi <= 0.0 and operand.hi + err_enc.hi <= 0.0:
                return _add_error(-ea, own)
            return _add_error(self._sign_blur(method, va, ea, context), own)
        if node.op in (OpType.MIN, OpType.MAX):
            a, b = node.inputs
            if a == b:  # min(x, x) == max(x, x) == x: error forwards exactly
                return _add_error(errors[a], own)
            va, vb = values[a], values[b]
            ea, eb = errors[a], errors[b]
            if _is_zero(ea) and _is_zero(eb):
                return _add_error(0.0, own)
            diff = _enclosure_of(va) - _enclosure_of(vb)
            err_diff = _enclosure_of(ea) - _enclosure_of(eb)
            diff_q = diff + err_diff
            if diff.lo >= 0.0 and diff_q.lo >= 0.0:
                # a >= b in both datapaths: min forwards b, max forwards a.
                chosen = eb if node.op is OpType.MIN else ea
                return _add_error(chosen, own)
            if diff.hi <= 0.0 and diff_q.hi <= 0.0:
                chosen = ea if node.op is OpType.MIN else eb
                return _add_error(chosen, own)
            return _add_error(
                self._select_blend(method, name, node.op, va, vb, ea, eb, err_diff, context),
                own,
            )
        if node.op is OpType.MUX:
            s, a, b = node.inputs
            if a == b:  # both branches carry the same signal and error
                return _add_error(errors[a], own)
            vs = values[s]
            va, vb = values[a], values[b]
            es, ea, eb = errors[s], errors[a], errors[b]
            selector = _enclosure_of(vs)
            sel_err = _enclosure_of(es)
            selector_q = selector + sel_err
            if selector.lo >= 0.0 and selector_q.lo >= 0.0:
                return _add_error(ea, own)
            if selector.hi < 0.0 and selector_q.hi < 0.0:
                return _add_error(eb, own)
            return _add_error(
                self._mux_blend(method, vs, va, vb, sel_err, ea, eb, context), own
            )
        # DELAY cannot appear after unrolling
        raise NoiseModelError(
            f"unsupported operation {node.op!r} at node {name!r} in noise propagation; "
            f"the {method} analyzer knows no error rule for it"
        )

    # ------------------------------------------------------------------ #
    # data-dependent selection helpers (abs / min / max / mux)
    # ------------------------------------------------------------------ #
    def _sign_blur(
        self, method: str, va: Any, ea: Any, context: AffineContext | None
    ) -> Any:
        """Error of ``|a + e| - |a|`` when the operand's sign is undecided.

        The reverse triangle inequality bounds it by ``|e|``; SNA reads
        it as the sign-probability mixture of ``e`` and ``-e`` (the exact
        error away from the kink), whose support is the same bound.
        """
        if method == "sna":
            positive = 1.0 - va.cdf(0.0)
            ea = _as_pdf(ea)
            if positive >= 1.0:
                return ea
            if positive <= 0.0:
                return -ea
            return HistogramPDF.mixture([(ea, positive), (-ea, 1.0 - positive)], bins=self.bins)
        magnitude = _enclosure_of(ea).magnitude
        if method == "ia":
            return Interval(-magnitude, magnitude)
        if method == "aa":
            assert context is not None
            return AffineForm(0.0, {context.fresh("abs"): magnitude}, context)
        return TaylorModel(0.0, remainder=Interval(-magnitude, magnitude))

    def _select_blend(
        self,
        method: str,
        name: str,
        op: OpType,
        va: Any,
        vb: Any,
        ea: Any,
        eb: Any,
        err_diff: Interval,
        context: AffineContext | None,
    ) -> Any:
        """Error of ``min``/``max`` when the winning operand is undecided.

        Via ``min(x,y) = (x+y-|x-y|)/2`` the error is
        ``(e_a + e_b -+ D)/2`` with ``|D| <= |e_a - e_b|`` (reverse
        triangle inequality on the shared ``|x - y|`` term); the
        symmetric ``D`` enclosure serves min and max alike.  SNA blends
        the operand error distributions with the selection probability
        ``P(a < b)`` instead — the error is exactly one operand's error
        whenever the selection is strict, and the mixture support equals
        the hull bound.
        """
        if method == "sna":
            p_smaller = self._selection_probability(name, va, vb)
            weight_a = p_smaller if op is OpType.MIN else 1.0 - p_smaller
            parts = [(_as_pdf(ea), weight_a), (_as_pdf(eb), 1.0 - weight_a)]
            if weight_a >= 1.0:
                return parts[0][0]
            if weight_a <= 0.0:
                return parts[1][0]
            return HistogramPDF.mixture(parts, bins=self.bins)
        magnitude = err_diff.magnitude
        if method == "ia":
            spread: Any = Interval(-magnitude, magnitude)
        elif method == "aa":
            assert context is not None
            spread = AffineForm(0.0, {context.fresh("sel"): magnitude}, context)
        else:
            spread = TaylorModel(0.0, remainder=Interval(-magnitude, magnitude))
        total = self._sum_errors(method, [ea, eb, spread], context)
        if isinstance(total, float):
            return 0.5 * total
        return total.scale(0.5)

    def _selection_probability(self, name: str, va: Any, vb: Any) -> float:
        """``P(a < b)`` under the SNA value distributions (cached per node).

        Value enclosures never depend on the word-length assignment, so
        the probability is computed once per node and reused by every
        (incremental) re-analysis.
        """
        cached = self._select_prob_cache.get(name)
        if cached is None:
            diff = _as_pdf(va).sub(_as_pdf(vb), bins=self.bins)
            cached = diff.cdf(0.0)
            self._select_prob_cache[name] = cached
        return cached

    def _mux_blend(
        self,
        method: str,
        vs: Any,
        va: Any,
        vb: Any,
        sel_err: Interval,
        ea: Any,
        eb: Any,
        context: AffineContext | None,
    ) -> Any:
        """Mux error when the select's sign is undecided.

        Both branch errors are possible; when the select's own error can
        flip the comparison (nonzero ``sel_err``), the exact and the
        quantized datapath can take *different* branches near the
        threshold, leaving the branch-swap residuals ``(b + e_b) - a``
        and ``(a + e_a) - b`` in the output.  SNA weighs the branch
        errors by the select-sign probability and gives the swap
        residuals the probability that ``|s|`` falls inside the select
        error band.
        """
        enc_a, enc_b = _enclosure_of(va), _enclosure_of(vb)
        err_a, err_b = _enclosure_of(ea), _enclosure_of(eb)
        can_flip = sel_err.lo != 0.0 or sel_err.hi != 0.0
        if method == "sna":
            p_a = 1.0 - vs.cdf(0.0)
            p_flip = 0.0
            if can_flip:
                m = sel_err.magnitude
                p_flip = vs.probability_of(Interval(-m, m))
            parts = [
                (_as_pdf(ea), p_a * (1.0 - p_flip)),
                (_as_pdf(eb), (1.0 - p_a) * (1.0 - p_flip)),
            ]
            if p_flip > 0.0:
                swap_ab = _as_pdf(vb).add(_as_pdf(eb)).sub(_as_pdf(va), bins=self.bins)
                swap_ba = _as_pdf(va).add(_as_pdf(ea)).sub(_as_pdf(vb), bins=self.bins)
                parts.append((swap_ab, 0.5 * p_flip))
                parts.append((swap_ba, 0.5 * p_flip))
            return HistogramPDF.mixture(parts, bins=self.bins)
        members = [err_a, err_b]
        if can_flip:
            members.append((enc_b + err_b) - enc_a)
            members.append((enc_a + err_a) - enc_b)
        hull = Interval.hull_of(members)
        if method == "ia":
            return hull
        if method == "aa":
            assert context is not None
            terms = {context.fresh("mux"): hull.radius} if hull.radius != 0.0 else {}
            return AffineForm(hull.midpoint, terms, context)
        return TaylorModel(
            hull.midpoint, remainder=Interval(-hull.radius, hull.radius)
        )

    def _sum_errors(self, method: str, terms: List[Any], context: AffineContext | None) -> Any:
        """Left-fold sum of error terms, skipping exact zeros and ``None``.

        The AA path merges all term dicts in one aligned-array pass
        (:meth:`AffineForm.sum_of`) instead of chaining binary adds; the
        result is bit-identical to the chain, just cheaper.
        """
        live = [t for t in terms if t is not None and not _is_zero(t)]
        if not live:
            return 0.0
        if len(live) == 1:
            return live[0]
        if method == "aa" and any(isinstance(t, AffineForm) for t in live):
            return AffineForm.sum_of(live, context=context)
        acc = live[0]
        for term in live[1:]:
            acc = acc + term
        return acc

    # ------------------------------------------------------------------ #
    # report construction
    # ------------------------------------------------------------------ #
    def analyze(
        self,
        method: str = "sna",
        output: str | None = None,
        contributions: bool = True,
    ) -> NoiseReport:
        """Run one analysis method and summarize the output error.

        ``contributions=False`` skips the per-source breakdown (and, for
        IA, the adjoint gain sweep that feeds it) — callers that only
        need bounds/moments, like the word-length optimizer's inner
        loop, save a full O(graph) pass per analysis.
        """
        method = str(method).lower()
        if method not in ANALYSIS_METHODS:
            raise NoiseModelError(
                f"unknown analysis method {method!r}; choose from {ANALYSIS_METHODS}"
            )
        target = self._resolve_output(output)
        values, errors, _context = self._propagate(propagation_algebra(method), target)
        error = errors[target]
        builder = getattr(self, f"_report_{method}")
        return builder(target, error, values, contributions)

    def _aggregate_contributions(self, raw: Mapping[str, float]) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for symbol, magnitude in raw.items():
            node = symbol[2:] if symbol.startswith("e_") else symbol
            merged[_base_name(node)] = merged.get(_base_name(node), 0.0) + abs(magnitude)
        return merged

    def _report_ia(
        self, target: str, error: Any, values: Dict[str, Any], with_contributions: bool = True
    ) -> NoiseReport:
        bounds = error if isinstance(error, Interval) else Interval.point(float(error))
        mean, variance = self._moments_ia(bounds)
        contributions: Dict[str, float] = {}
        if with_contributions:
            # The propagated values ARE the per-node IA enclosures; reuse
            # them as the ranges the adjoint gain sweep linearizes around.
            # Values never depend on the word-length assignment, so the
            # profile is cached per target across incremental re-analyses.
            profile = self._gain_cache.get(target)
            if profile is None:
                profile = transfer_gains(self.graph, values, output=target)
                self._gain_cache[target] = profile
            contributions = self._aggregate_contributions(
                {
                    source.node: profile.magnitude_of(source.node)
                    * source.error_interval.magnitude
                    for source in self._sources_by_node.values()
                }
            )
        return NoiseReport(
            method="ia",
            output=target,
            bounds=bounds,
            mean=mean,
            variance=variance,
            noise_power=mean * mean + variance,
            source_count=len(self._sources_by_node),
            contributions=contributions,
        )

    def _report_aa(
        self, target: str, error: Any, values: Dict[str, Any], with_contributions: bool = True
    ) -> NoiseReport:
        if not isinstance(error, AffineForm):
            error = AffineForm(float(error), {})
        bounds = error.to_interval()
        mean, variance = self._moments_aa(error)
        contributions: Dict[str, float] = {}
        if with_contributions:
            contributions = self._aggregate_contributions(
                {name: coeff for name, coeff in error.terms.items() if name.startswith("e_")}
            )
        return NoiseReport(
            method="aa",
            output=target,
            bounds=bounds,
            mean=mean,
            variance=variance,
            noise_power=mean * mean + variance,
            source_count=len(self._sources_by_node),
            contributions=contributions,
        )

    def _report_pna(
        self, target: str, error: Any, values: Dict[str, Any], with_contributions: bool = True
    ) -> NoiseReport:
        """Probabilistic report: the AA error form read as an error PDF.

        The affine form's shared noise symbols already account for
        correlated reconvergent paths (they combine symbolically during
        propagation), so convolving the per-symbol uniform contributions
        here treats only *distinct* symbols as independent — exactly the
        AA independence model, but producing a full distribution instead
        of two moments.
        """
        # Lazy import: repro.analysis imports this module at package init.
        from repro.analysis.probabilistic import affine_error_pdf

        if not isinstance(error, AffineForm):
            error = AffineForm(float(error), {})
        bounds = error.to_interval()
        mean, variance = self._moments_aa(error)
        contributions: Dict[str, float] = {}
        if with_contributions:
            contributions = self._aggregate_contributions(
                {name: coeff for name, coeff in error.terms.items() if name.startswith("e_")}
            )
        return NoiseReport(
            method="pna",
            output=target,
            bounds=bounds,
            mean=mean,
            variance=variance,
            noise_power=mean * mean + variance,
            source_count=len(self._sources_by_node),
            contributions=contributions,
            error_pdf=affine_error_pdf(error, bins=self.bins),
        )

    def _report_taylor(
        self, target: str, error: Any, values: Dict[str, Any], with_contributions: bool = True
    ) -> NoiseReport:
        if not isinstance(error, TaylorModel):
            error = TaylorModel.constant_model(float(error))
        bounds = error.bound()
        mean, variance = self._moments_taylor(error)
        contributions: Dict[str, float] = {}
        if with_contributions:
            contributions = self._aggregate_contributions(
                {name: coeff for name, coeff in error.linear.items() if name.startswith("e_")}
            )
        return NoiseReport(
            method="taylor",
            output=target,
            bounds=bounds,
            mean=mean,
            variance=variance,
            noise_power=mean * mean + variance,
            source_count=len(self._sources_by_node),
            contributions=contributions,
        )

    # ------------------------------------------------------------------ #
    # per-method error moments — single source of truth shared by the
    # report builders and the optimizer's noise-power fast path
    # ------------------------------------------------------------------ #
    @staticmethod
    def _moments_ia(error: Interval) -> tuple[float, float]:
        mean = error.midpoint
        width = error.width
        return mean, width * width / 12.0

    @staticmethod
    def _moments_aa(error: AffineForm) -> tuple[float, float]:
        variance = summed(coeff * coeff for coeff in error.terms.values()) / 3.0
        return error.center, variance

    @staticmethod
    def _moments_taylor(error: TaylorModel) -> tuple[float, float]:
        mean = error.constant + error.remainder.midpoint
        variance = summed(c * c for c in error.linear.values()) / 3.0
        for (a, b), coeff in error.quadratic.items():
            if a == b:
                mean += coeff / 3.0
                variance += coeff * coeff * (4.0 / 45.0)
            else:
                variance += coeff * coeff / 9.0
        variance += error.remainder.radius * error.remainder.radius / 3.0
        return mean, variance

    def _noise_power_ia(self, error: Any) -> float:
        if not isinstance(error, Interval):
            value = float(error)
            return value * value
        mean, variance = self._moments_ia(error)
        return mean * mean + variance

    def _noise_power_aa(self, error: Any) -> float:
        if not isinstance(error, AffineForm):
            value = float(error)
            return value * value
        mean, variance = self._moments_aa(error)
        return mean * mean + variance

    def _noise_power_taylor(self, error: Any) -> float:
        if not isinstance(error, TaylorModel):
            value = float(error)
            return value * value
        mean, variance = self._moments_taylor(error)
        return mean * mean + variance

    def _noise_power_sna(self, error: Any) -> float:
        if not isinstance(error, HistogramPDF):
            value = float(error)
            return value * value
        return error.mean_square()

    def _noise_power_pna(self, error: Any) -> float:
        # The mean-square of the convolved PDF equals mean² + variance of
        # the affine form analytically; the moment form skips the binning
        # error entirely, so pna's plain noise power IS aa's.
        return self._noise_power_aa(error)

    def noise_power_of(self, method: str, error: Any) -> float:
        """Output noise power of a propagated error — the single number the
        word-length search needs per candidate, computed without building
        a full :class:`NoiseReport` (identical to the report's value)."""
        return getattr(self, f"_noise_power_{method}")(error)

    def effective_noise_power(
        self, method: str, error: Any, confidence: float | None = None
    ) -> float:
        """The noise measure an SNR constraint judges, under ``confidence``.

        ``confidence=None`` is the legacy mean-square power.
        ``confidence=1.0`` is the worst-case peak: the squared magnitude
        of a sound enclosure of the error (any method).  A fractional
        confidence is the squared ``confidence``-quantile of |error|,
        read from the propagated error distribution — available for the
        PDF-producing methods ("pna", "sna").  Successive "pna" reads on
        this analyzer share one :class:`UniformChain`, which changes their
        cost but never their result.
        """
        if confidence is None:
            return self.noise_power_of(method, error)
        from repro.analysis.probabilistic import UniformChain, confidence_noise_power

        if self._pna_chain is None:
            self._pna_chain = UniformChain()
        return confidence_noise_power(
            method, error, confidence, bins=self.bins, chain=self._pna_chain
        )

    def _report_sna(
        self, target: str, error: Any, values: Dict[str, Any], with_contributions: bool = True
    ) -> NoiseReport:
        if not isinstance(error, HistogramPDF):
            error = HistogramPDF.point(float(error))
        stats = summarize(error)
        return NoiseReport(
            method="sna",
            output=target,
            bounds=stats.bounds,
            mean=stats.mean,
            variance=stats.variance,
            noise_power=stats.noise_power,
            source_count=len(self._sources_by_node),
            error_pdf=error,
        )


def _is_zero(value: Any) -> bool:
    return isinstance(value, float) and value == 0.0


def _enclosure_of(value: Any) -> Interval:
    """Sound interval enclosure of a propagated value/error in any algebra."""
    if isinstance(value, Interval):
        return value
    if isinstance(value, (int, float)):
        return Interval.point(float(value))
    if isinstance(value, AffineForm):
        return value.to_interval()
    if isinstance(value, TaylorModel):
        return value.bound()
    if isinstance(value, HistogramPDF):
        return value.support
    raise NoiseModelError(f"cannot enclose a value of type {type(value).__name__}")


def _as_pdf(value: Any) -> HistogramPDF:
    """Coerce a propagated SNA term (or exact-zero float) to a histogram."""
    if isinstance(value, HistogramPDF):
        return value
    return HistogramPDF.point(float(value))


def _square(value: Any) -> Any:
    if hasattr(value, "square"):
        return value.square()
    return value * value


def _add_error(accumulated: Any, term: Any) -> Any:
    if term is None or _is_zero(term):
        return accumulated
    if _is_zero(accumulated):
        return term
    return accumulated + term
