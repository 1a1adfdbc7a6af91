"""Incremental noise re-analysis for word-length search loops.

A word-length optimizer calls the noise analyzer once per candidate, and
almost every candidate differs from the previous one at a *single* node
(greedy bit-stealing).  A full
:class:`~repro.noisemodel.analyzer.DatapathNoiseAnalyzer` run
re-propagates the whole unrolled graph anyway — O(graph) work for an
O(1) change.

:class:`IncrementalAnalyzer` fixes that asymmetry:

* the *value* enclosures of every node depend only on the graph and the
  input ranges — never on the word-length assignment — so they are
  propagated exactly once per method and cached;
* the *error* enclosures of a committed baseline are cached, and a
  candidate whose formats differ at ``k`` original nodes re-propagates
  only the union of their instances' downstream cones of influence
  (reverse reachability is computed once per node and memoized);
* quantization sources are diffed per node, so only changed nodes pay
  ``quantize``/interval reconstruction;
* probes are *overlays* by default inside an optimizer loop: the cone
  result is written to a scratch dict that holds only the cone (reads of
  any other node fall through to the committed errors, which are never
  copied), read out and discarded.  A probe therefore costs O(cone) even
  on a graph of thousands of nodes, and consecutive probes of different
  nodes from the same current design each pay one cone, not two.  When a
  search accepts a move it promotes the candidate
  with :meth:`commit` (see ``OptimizationProblem.notify_accepted``), and
  a candidate that drifts ``>= AUTO_COMMIT_AFTER`` nodes away from the
  committed baseline is committed automatically so un-notified callers
  degrade gracefully instead of re-propagating ever-growing cones;
* :meth:`probe_moves` prices a whole batch of single-node moves from one
  design, the batched search's frontier: it commits the design, then per
  move swaps that node's sources in place, runs its cone into an overlay
  and swaps them back, with no candidate assignment built or diffed.
  ``BatchedAnalyzer`` sends it every batch of every method.

The cone re-propagation of ``taylor`` calls the very same
per-node rules (:meth:`DatapathNoiseAnalyzer._error_of`) as the full
sweep.  ``ia`` and ``aa`` (which ``pna`` shares), the methods searches
price most, run compiled rules instead: on first use the engine builds
one closure per working-graph node with its operand names and value
enclosures bound.  An ``ia`` closure (:func:`_compile_ia_rule`) repeats
the generic rule's interval float operations in the same order — the
same float-zero shortcuts, the same left folds of live terms, the same
endpoint products.  An ``aa`` closure (:func:`_compile_aa_rule`) calls
the very ``(center, terms)`` kernels that :class:`AffineForm` wraps
(product, square, reciprocal, Chebyshev curve, sum), composed as the
generic rule composes forms, so the arithmetic exists once.  Both give
the generic rule's errors bit for bit, signed zeros included.  ``ia``'s
rare ops (div, sqrt, exp, log, abs, min, max, mux) keep the generic
rule; every ``aa`` op is compiled.

Either way incremental reports match a from-scratch analysis exactly,
for every method.  AA's linearization symbols get other names than in a
full sweep (a compiled rule names them after its node and site), but a
name only identifies a symbol: each coefficient is built by the same
float operations.  The AA reductions (``AffineForm.radius`` and the AA
variance) are ``math.fsum``, which is correctly rounded, so they do not
depend on the order of a form's terms at all; the Taylor reductions add
the same numbers in the same order.
``tests/test_incremental.py``
(``test_incremental_equals_full_on_random_perturbations``) holds every
report field to a from-scratch analysis with ``==``,
``tests/test_compiled_ia_rules.py`` and ``tests/test_compiled_aa_rules.py``
hold every compiled rule to the generic one node by node,
``tests/test_probe_moves.py`` holds every probed move to
:meth:`noise_power` of the moved design, and
``tests/test_evaluate_cache.py``
(``TestEvaluatorEquivalence``) holds every candidate of whole greedy
searches to a from-scratch analysis the same way.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.dfg.node import OpType
from repro.errors import DivisionByZeroIntervalError, DomainError, NoiseModelError
from repro.intervals.affine import (
    AffineContext,
    AffineForm,
    _bounds,
    _checked,
    _curve,
    _folded,
    _inverse,
    _negated,
    _product,
    _radius,
    _scaled,
    _squared,
    _summed,
)
from repro.intervals.interval import Interval
from repro.intervals.linearize import exp_linearization, log_linearization, sqrt_linearization
from repro.noisemodel.analyzer import (
    ANALYSIS_METHODS,
    DatapathNoiseAnalyzer,
    NoiseReport,
    propagation_algebra,
)
from repro.noisemodel.assignment import WordLengthAssignment, changed_formats
from repro.noisemodel.sources import source_for_node

__all__ = ["IncrementalAnalyzer", "IncrementalStats"]

#: A probe whose formats differ from the committed baseline at this many
#: original nodes or more is committed even when the caller asked for an
#: overlay, so later cones stay small.
AUTO_COMMIT_AFTER = 8


@dataclass
class IncrementalStats:
    """Bookkeeping of how much work the incremental engine actually did.

    ``nodes_recomputed`` counts the node errors re-propagated by cone
    updates.  ``last_recomputed`` is the tuple of working-graph node
    names whose error was re-propagated by the most recent
    :meth:`IncrementalAnalyzer.analyze` call — the cone-of-influence
    property tests assert it never leaves the true downstream cone of
    the perturbed nodes.
    """

    nodes_recomputed: int = 0
    last_recomputed: Tuple[str, ...] = field(default_factory=tuple)


#: One node's error rule: ``rule(errors)`` reads the node's operand errors
#: from ``errors`` and returns the node's own error.
ErrorRule = Callable[[Mapping[str, Any]], Any]


class _Overlay(dict):
    """A probe's scratch layer: the cone's errors over the committed ones.

    Holds only the nodes the probe re-propagates; reading any other node
    falls through ``__missing__`` to the committed errors, which are
    neither copied nor written.
    """

    __slots__ = ("committed",)

    def __init__(self, committed: Dict[str, Any]) -> None:
        super().__init__()
        self.committed = committed

    def __missing__(self, name: str) -> Any:
        return self.committed[name]


def _generic_rule(
    analyzer: DatapathNoiseAnalyzer, method: str, name: str, node, values, context
) -> ErrorRule:
    """One node's rule through :meth:`DatapathNoiseAnalyzer._error_of`."""

    def rule(errors):
        return analyzer._error_of(method, name, node, values, errors, context)

    return rule


def _compile_ia_rule(analyzer: DatapathNoiseAnalyzer, name: str, node, values) -> ErrorRule | None:
    """The compiled ``_error_rule(method="ia")`` of one node.

    Operand names and value enclosures are bound here; the node's own
    quantization source is read at call time, because the engine swaps
    sources in place as the assignment moves.  Each closure performs the
    generic rule's float operations in the same order: an exact-zero
    error (``ia`` errors are the float ``0.0`` or an :class:`Interval`) is
    no term, the live terms are left-folded with ``own`` last, and every
    interval product feeds its four endpoint products to ``min``/``max``
    as one tuple.  The results are therefore bit-identical, signed zeros
    included.  Returns ``None`` for the rare ops, which keep the generic
    rule.

    MUL and SQUARE hand a result with an infinite or NaN endpoint to the
    generic rule: an unbounded operand error times a zero value endpoint
    is ``0 * inf``, a NaN product here that ``Interval.__mul__`` reads as
    0, and ``min``/``max`` over a NaN depend on its position.
    """
    op = node.op
    inf = math.inf
    get_source = analyzer._sources_by_node.get
    fast = Interval._fast
    generic = _generic_rule(analyzer, "ia", name, node, values, None)
    if op is OpType.INPUT or op is OpType.CONST:

        def rule(errors):
            source = get_source(name)
            return source.error_interval if source else 0.0

    elif op is OpType.OUTPUT:
        (a,) = node.inputs

        def rule(errors):
            return errors[a]

    elif op is OpType.NEG:
        (a,) = node.inputs

        def rule(errors):
            ea = errors[a]
            source = get_source(name)
            if ea.__class__ is float:
                return source.error_interval if source else 0.0
            if source:
                own = source.error_interval
                return fast(-ea.hi + own.lo, -ea.lo + own.hi)
            return fast(-ea.hi, -ea.lo)

    elif op is OpType.ADD or op is OpType.SUB:
        a, b = node.inputs
        negate = op is OpType.SUB

        def rule(errors):
            ea = errors[a]
            eb = errors[b]
            source = get_source(name)
            if ea.__class__ is float:
                if eb.__class__ is float:
                    return source.error_interval if source else 0.0
                lo, hi = (-eb.hi, -eb.lo) if negate else (eb.lo, eb.hi)
            elif eb.__class__ is float:
                lo, hi = ea.lo, ea.hi
            elif negate:
                lo, hi = ea.lo + -eb.hi, ea.hi + -eb.lo
            else:
                lo, hi = ea.lo + eb.lo, ea.hi + eb.hi
            if source:
                own = source.error_interval
                return fast(lo + own.lo, hi + own.hi)
            return fast(lo, hi)

    elif op is OpType.MUL:
        a, b = node.inputs
        valo, vahi = values[a].lo, values[a].hi
        vblo, vbhi = values[b].lo, values[b].hi

        def rule(errors):
            ea = errors[a]
            eb = errors[b]
            source = get_source(name)
            if eb.__class__ is float:
                if ea.__class__ is float:
                    return source.error_interval if source else 0.0
                # vb * ea
                p = (vblo * ea.lo, vblo * ea.hi, vbhi * ea.lo, vbhi * ea.hi)
                lo, hi = min(p), max(p)
            else:
                # va * eb, then vb * ea and ea * eb when ea is live
                p = (valo * eb.lo, valo * eb.hi, vahi * eb.lo, vahi * eb.hi)
                lo, hi = min(p), max(p)
                if ea.__class__ is not float:
                    p = (vblo * ea.lo, vblo * ea.hi, vbhi * ea.lo, vbhi * ea.hi)
                    lo, hi = lo + min(p), hi + max(p)
                    p = (ea.lo * eb.lo, ea.lo * eb.hi, ea.hi * eb.lo, ea.hi * eb.hi)
                    lo, hi = lo + min(p), hi + max(p)
            if source:
                own = source.error_interval
                lo, hi = lo + own.lo, hi + own.hi
            if -inf < lo and hi < inf:
                return fast(lo, hi)
            return generic(errors)

    elif op is OpType.SQUARE:
        (a,) = node.inputs
        valo, vahi = values[a].lo, values[a].hi

        def rule(errors):
            ea = errors[a]
            source = get_source(name)
            if ea.__class__ is float:
                return source.error_interval if source else 0.0
            elo, ehi = ea.lo, ea.hi
            # 2.0 * (va * ea)
            p = (valo * elo, valo * ehi, vahi * elo, vahi * ehi)
            mlo, mhi = min(p), max(p)
            p = (mlo * 2.0, mlo * 2.0, mhi * 2.0, mhi * 2.0)
            lo, hi = min(p), max(p)
            # + ea.square(), the dependency-aware image of ea ** 2
            slo, shi = elo**2, ehi**2
            if elo <= 0.0 <= ehi:
                lo, hi = lo + 0.0, hi + max(slo, shi)
            else:
                lo, hi = lo + min(slo, shi), hi + max(slo, shi)
            if source:
                own = source.error_interval
                lo, hi = lo + own.lo, hi + own.hi
            if -inf < lo and hi < inf:
                return fast(lo, hi)
            return generic(errors)

    else:
        return None
    return rule


# ---------------------------------------------------------------------- #
# the compiled ``aa`` rules
# ---------------------------------------------------------------------- #
# The rules run AffineForm's own ``(center, terms)`` kernels
# (``repro.intervals.affine``); the helpers below compose them the way
# ``DatapathNoiseAnalyzer._error_rule`` composes forms.


def _site(symbol: str) -> Callable[[], str]:
    """A kernel site that always names its symbol ``symbol``."""
    return lambda: symbol


def _live_sum(
    forms: List[Tuple[float, Mapping[str, float]]],
    own: AffineForm | None,
    context: AffineContext,
) -> Any:
    """``_sum_errors`` of the live ``(center, terms)`` pairs and the node's own term."""
    if own is not None:
        forms.append((own.center, own.terms))
    if len(forms) > 1:
        return AffineForm._trusted(*_summed(forms), context)
    return AffineForm._trusted(*forms[0], context) if forms else 0.0


def _enclosure(error: Any) -> Tuple[float, float]:
    """``_enclosure_of``'s endpoints for an ``aa`` error (``0.0`` or a form)."""
    if error.__class__ is float:
        return 0.0, 0.0
    return _bounds(error.center, _radius(error.terms))


def _joined(
    center: float, terms: Dict[str, float], own: AffineForm | None, context: AffineContext
) -> AffineForm:
    """``_add_error`` of a new ``(center, terms)`` and the node's own term."""
    if own is None:
        return AffineForm._trusted(center, terms, context)
    return AffineForm._trusted(center + own.center, _folded(terms, own.terms), context)


def _forwarded(error: Any, own: AffineForm | None, context: AffineContext) -> Any:
    """``_add_error`` of an operand's error (``0.0`` or a form) and the node's own term."""
    if own is None:
        return error
    if error.__class__ is float:
        return own
    return _joined(error.center, dict(error.terms), own, context)


def _own_terms(
    analyzer: DatapathNoiseAnalyzer, context: AffineContext
) -> Callable[[str], AffineForm | None]:
    """``own_of(name)``: the AA error term of ``name``'s current source, or ``None``.

    Built by ``_make_error_term`` once per source object; the engine swaps
    sources in place, so the source is looked up on every call.
    """
    get_source = analyzer._sources_by_node.get
    built: Dict[int, Tuple[Any, AffineForm]] = {}

    def own_of(name: str) -> AffineForm | None:
        source = get_source(name)
        if source is None:
            return None
        entry = built.get(id(source))
        if entry is None or entry[0] is not source:
            entry = (source, analyzer._make_error_term("aa", source, context))
            built[id(source)] = entry
        return entry[1]

    return own_of


def _compile_aa_rule(
    name: str,
    node,
    values: Mapping[str, AffineForm],
    context: AffineContext,
    own_of: Callable[[str], AffineForm | None],
) -> ErrorRule | None:
    """The compiled ``_error_rule(method="aa")`` of one node.

    Operand names, value forms, their radii and enclosures (and LOG's
    ``1 / va``) are bound here; the node's own term comes from ``own_of``
    at call time.  Each closure composes ``AffineForm``'s own kernels on
    ``(center, terms)`` pairs as the generic rule composes forms — the
    same float-zero shortcuts and the same left folds — and sums an
    error's radius once per call.  Each linearization symbol is named
    after the node and its site (``~<node>:<k>``) instead of drawn from
    ``context.fresh()``: a cone re-propagates every consumer of a node
    it re-propagates, so the names stay unique within any error sweep.
    The errors therefore equal the generic rule's, signed zeros included,
    up to those names.  Returns ``None`` for an op with no error rule.
    """
    op = node.op
    s0, s1, s2 = (_site(f"~{name}:{k}") for k in range(3))

    def named(exc: DomainError) -> DomainError:
        """``_error_of``'s naming of a domain violation."""
        return DomainError(f"node {name!r} ({op.value}): {exc}", node=name)

    if op is OpType.INPUT or op is OpType.CONST:

        def rule(errors):
            own = own_of(name)
            return 0.0 if own is None else own

    elif op is OpType.OUTPUT:
        (a,) = node.inputs

        def rule(errors):
            return errors[a]

    elif op is OpType.NEG:
        (a,) = node.inputs

        def rule(errors):
            ea = errors[a]
            own = own_of(name)
            if ea.__class__ is float:
                return 0.0 if own is None else own
            return _joined(-ea.center, _negated(ea.terms), own, context)

    elif op is OpType.ADD or op is OpType.SUB:
        a, b = node.inputs
        negate = op is OpType.SUB

        def rule(errors):
            ea = errors[a]
            eb = errors[b]
            own = own_of(name)
            forms = []
            if ea.__class__ is not float:
                forms.append((ea.center, ea.terms))
            if eb.__class__ is not float:
                if negate:
                    forms.append((-eb.center, _negated(eb.terms)))
                else:
                    forms.append((eb.center, eb.terms))
            return _live_sum(forms, own, context)

    elif op is OpType.MUL:
        a, b = node.inputs
        va, vb = values[a], values[b]
        vac, vat, var_ = va.center, va.terms, va.radius
        vbc, vbt, vbr = vb.center, vb.terms, vb.radius

        def rule(errors):
            # va * eb, vb * ea and ea * eb, where live, then own
            ea = errors[a]
            eb = errors[b]
            own = own_of(name)
            live_a = ea.__class__ is not float
            live_b = eb.__class__ is not float
            ra = rb = None
            if live_a and live_b and ea.terms and eb.terms:
                ra, rb = _radius(ea.terms), _radius(eb.terms)
            forms = []
            if live_b:
                forms.append(_product(vac, vat, var_, eb.center, eb.terms, rb, s0))
            if live_a:
                forms.append(_product(vbc, vbt, vbr, ea.center, ea.terms, ra, s1))
                if live_b:
                    forms.append(_product(ea.center, ea.terms, ra, eb.center, eb.terms, rb, s2))
            return _live_sum(forms, own, context)

    elif op is OpType.SQUARE:
        (a,) = node.inputs
        va = values[a]
        vac, vat, var_ = va.center, va.terms, va.radius

        def rule(errors):
            # 2.0 * (va * ea) + ea.square() + own
            ea = errors[a]
            own = own_of(name)
            if ea.__class__ is float:
                return 0.0 if own is None else own
            center, terms = ea.center, ea.terms
            radius = _radius(terms)
            pc, pt = _product(vac, vat, var_, center, terms, radius, s0)
            forms = [(pc * 2.0, _scaled(pt, 2.0)), _squared(center, terms, radius, s1)]
            return _live_sum(forms, own, context)

    elif op is OpType.DIV:
        a, b = node.inputs
        vb, exact = values[b], values[name]
        vbc, vbt, vbr = vb.center, vb.terms, vb.radius
        xc, xt, xr = exact.center, exact.terms, exact.radius

        def rule(errors):
            # (ea - exact * eb) * (1 / (vb + eb)) + own
            ea = errors[a]
            eb = errors[b]
            own = own_of(name)
            zero_a = ea.__class__ is float
            if eb.__class__ is float:
                if zero_a:
                    return 0.0 if own is None else own
                nc, nt = ea.center, ea.terms
                dc, dt, dr = vbc, vbt, vbr
            else:
                pc, pt = _product(xc, xt, xr, eb.center, eb.terms, None, s0)
                negated = _negated(pt)
                if zero_a:
                    nc, nt = -pc, negated
                else:
                    nc, nt = ea.center + -pc, _folded(dict(ea.terms), negated)
                dc, dt = vbc + eb.center, _folded(dict(vbt), eb.terms)
                dr = _radius(dt)
            rc, rt = _inverse(dc, dt, dr, s1)
            return _joined(*_product(nc, nt, None, rc, rt, None, s2), own, context)

    elif op is OpType.SQRT:
        (a,) = node.inputs
        va, value = values[a], values[name]
        vac, vat = va.center, va.terms
        root_c, root_t = value.center, value.terms

        def rule(errors):
            # ea * (1 / (sqrt(va + ea) + value)) + own
            ea = errors[a]
            own = own_of(name)
            if ea.__class__ is float:
                return 0.0 if own is None else own
            center, terms = ea.center, ea.terms
            sc, st = vac + center, _folded(dict(vat), terms)
            try:
                sc, st = _curve(sc, st, _radius(st), sqrt_linearization, math.sqrt, s0)
            except DomainError as exc:  # raised by the linearization, unnamed
                raise named(exc) from exc
            dc, dt = sc + root_c, _folded(st, root_t)
            rc, rt = _inverse(dc, dt, _radius(dt), s1)
            return _joined(*_product(center, terms, None, rc, rt, None, s2), own, context)

    elif op is OpType.EXP:
        (a,) = node.inputs
        value = values[name]
        vc, vt, vr = value.center, value.terms, value.radius

        def rule(errors):
            # value * (exp(ea) - 1.0) + own
            ea = errors[a]
            own = own_of(name)
            if ea.__class__ is float:
                return 0.0 if own is None else own
            terms = ea.terms
            gc, gt = _curve(ea.center, terms, _radius(terms), exp_linearization, math.exp, s0)
            return _joined(*_product(vc, vt, vr, gc - 1.0, gt, None, s1), own, context)

    elif op is OpType.LOG:
        (a,) = node.inputs
        va = values[a]
        # The value sweep took va's log, so its enclosure is positive.
        ic, it = _inverse(va.center, va.terms, va.radius, s0)
        ir = _radius(it)

        def rule(errors):
            # log(ea * (1 / va) + 1.0) + own
            ea = errors[a]
            own = own_of(name)
            if ea.__class__ is float:
                return 0.0 if own is None else own
            qc, qt = _product(ea.center, ea.terms, None, ic, it, ir, s1)
            try:
                out = _curve(qc + 1.0, qt, _radius(qt), log_linearization, math.log, s2)
            except DomainError as exc:  # raised by the linearization, unnamed
                raise named(exc) from exc
            return _joined(*out, own, context)

    elif op is OpType.ABS:
        (a,) = node.inputs
        operand = values[a].to_interval()
        olo, ohi = operand.lo, operand.hi

        def rule(errors):
            # ea, -ea or the sign blur, + own
            ea = errors[a]
            own = own_of(name)
            if ea.__class__ is float:
                return 0.0 if own is None else own
            lo, hi = _enclosure(ea)
            if olo >= 0.0 and olo + lo >= 0.0:
                return _forwarded(ea, own, context)
            if ohi <= 0.0 and ohi + hi <= 0.0:
                return _joined(-ea.center, _negated(ea.terms), own, context)
            magnitude = max(abs(lo), abs(hi))
            return _joined(0.0, {s0(): magnitude} if magnitude != 0.0 else {}, own, context)

    elif (op is OpType.MIN or op is OpType.MAX) and node.inputs[0] != node.inputs[1]:
        a, b = node.inputs
        diff = values[a].to_interval() - values[b].to_interval()
        dlo, dhi = diff.lo, diff.hi
        is_min = op is OpType.MIN

        def rule(errors):
            ea = errors[a]
            eb = errors[b]
            own = own_of(name)
            zero_a = ea.__class__ is float
            zero_b = eb.__class__ is float
            if zero_a and zero_b:
                return 0.0 if own is None else own
            alo, ahi = _enclosure(ea)
            blo, bhi = _enclosure(eb)
            elo, ehi = alo - bhi, ahi - blo
            if dlo >= 0.0 and dlo + elo >= 0.0:
                # a >= b in both datapaths: min forwards e_b, max e_a.
                return _forwarded(eb if is_min else ea, own, context)
            if dhi <= 0.0 and dhi + ehi <= 0.0:
                return _forwarded(ea if is_min else eb, own, context)
            # (ea + eb + spread) * 0.5, the spread a symbol of |ea - eb|
            magnitude = max(abs(elo), abs(ehi))
            spread = (0.0, {s0(): magnitude} if magnitude != 0.0 else {})
            forms = [(e.center, e.terms) for e in (ea, eb) if e.__class__ is not float]
            tc, tt = _summed([*forms, spread]) if forms else spread
            return _joined(tc * 0.5, _scaled(tt, 0.5), own, context)

    elif op is OpType.MUX and node.inputs[1] != node.inputs[2]:
        s, a, b = node.inputs
        selector = values[s].to_interval()
        sel_lo, sel_hi = selector.lo, selector.hi
        enc_a, enc_b = values[a].to_interval(), values[b].to_interval()
        valo, vahi, vblo, vbhi = enc_a.lo, enc_a.hi, enc_b.lo, enc_b.hi

        def rule(errors):
            es = errors[s]
            ea = errors[a]
            eb = errors[b]
            own = own_of(name)
            slo, shi = _enclosure(es)
            if sel_lo >= 0.0 and sel_lo + slo >= 0.0:
                return _forwarded(ea, own, context)
            if sel_hi < 0.0 and sel_hi + shi < 0.0:
                return _forwarded(eb, own, context)
            # the hull of both branch errors (and, when the select's
            # error can flip it, of the branch-swap residuals)
            alo, ahi = _enclosure(ea)
            blo, bhi = _enclosure(eb)
            if slo != 0.0 or shi != 0.0:
                lo = min(alo, blo, (vblo + blo) - vahi, (valo + alo) - vbhi)
                hi = max(ahi, bhi, (vbhi + bhi) - valo, (vahi + ahi) - vblo)
            else:
                lo, hi = min(alo, blo), max(ahi, bhi)
            lo, hi = _checked(lo, hi)
            radius = 0.5 * (hi - lo)
            return _joined(0.5 * (lo + hi), {s0(): radius} if radius != 0.0 else {}, own, context)

    elif op in (OpType.MIN, OpType.MAX, OpType.MUX):
        # min(x, x), max(x, x) and a mux of one signal forward its error.
        a = node.inputs[-1]

        def rule(errors):
            return _forwarded(errors[a], own_of(name), context)

    else:
        return None
    return rule


def _checked_method(method: str) -> str:
    """``method`` lower-cased, or :class:`NoiseModelError` if it is not one."""
    method = str(method).lower()
    if method not in ANALYSIS_METHODS:
        raise NoiseModelError(
            f"unknown analysis method {method!r}; choose from {ANALYSIS_METHODS}"
        )
    return method


@dataclass
class _TargetState:
    """Cached error propagation of one (method, output) pair.

    ``errors`` covers exactly the ancestor closure of the target output
    and always reflects the *committed* baseline ``assignment``; overlay
    probes never touch it.  Value enclosures and AA contexts live per
    method on the engine (they are target-independent).
    """

    errors: Dict[str, Any]
    assignment: WordLengthAssignment


class IncrementalAnalyzer:
    """Memoizing, cone-restricted wrapper around the datapath analyzer.

    Parameters mirror :class:`DatapathNoiseAnalyzer`; the ``assignment``
    passed to the constructor seeds the baseline state, and every
    :meth:`analyze` call may carry a different assignment (same graph,
    same quantization/overflow modes).
    """

    def __init__(
        self,
        graph,
        assignment: WordLengthAssignment,
        input_ranges: Mapping[str, Interval],
        horizon: int = 8,
    ) -> None:
        self.analyzer = DatapathNoiseAnalyzer(graph, assignment, input_ranges, horizon=horizon)
        work = self.analyzer.graph
        self._position: Dict[str, int] = {
            name: i for i, name in enumerate(self.analyzer.topo_order)
        }
        successors: Dict[str, List[str]] = {name: [] for name in work.names()}
        for node in work:
            for operand in node.inputs:
                successors[operand].append(node.name)
        self._successors = successors
        unrolled = self.analyzer.unrolled
        if unrolled is None:
            self._instances: Dict[str, List[str]] | None = None
            self._no_effect_bases: FrozenSet[str] = frozenset()
        else:
            # The unroller lists a hoisted CONST's one instance once per
            # time step; listed once here, a format change builds and
            # installs its source once, and a probe swaps and restores it
            # once.
            self._instances = {
                base: list(dict.fromkeys(insts))
                for base, insts in unrolled.instances.items()
                if insts and base not in unrolled.delay_bases
            }
            # A delay register's format never reaches the working graph
            # (its instances alias already-quantized producers), so format
            # changes there are analysis no-ops with an empty cone.
            self._no_effect_bases = frozenset(
                base for base in unrolled.instances if base not in self._instances
            )
        #: The fixed modes every analyzed assignment must carry.
        self.quantization = assignment.quantization
        self.overflow = assignment.overflow
        #: The assignment the analyzer's sources currently reflect.
        self._synced = assignment
        #: (instance, format) -> QuantizationSource; probes toggle between
        #: adjacent precisions of the same nodes, so sources recur heavily.
        self._source_cache: Dict[Tuple[str, Any], Any] = {}
        self._downstream: Dict[str, FrozenSet[str]] = {}
        self._cones: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._values: Dict[str, Dict[str, Any]] = {}
        self._contexts: Dict[str, AffineContext | None] = {}
        self._rules: Dict[str, Dict[str, ErrorRule]] = {}
        self._states: Dict[Tuple[str, str], _TargetState] = {}
        # Last discarded overlay, kept one call long: when a search accepts
        # the probe it just evaluated, commit() merges the overlay instead
        # of re-propagating the identical cone.
        self._pending_overlay: Tuple[Tuple[str, str], Any, _Overlay, Any] | None = None
        self.stats = IncrementalStats()

    # ------------------------------------------------------------------ #
    # reachability
    # ------------------------------------------------------------------ #
    def downstream_of(self, base: str) -> FrozenSet[str]:
        """Forward reachability of one original node in the working graph.

        Covers every working-graph instance of ``base`` (all time steps
        of an unrolled sequential design) plus everything reachable from
        them; the perturbed instances themselves are included since their
        own quantization sources changed.  Memoized, so a greedy descent
        that probes the same node repeatedly pays the BFS once.
        """
        cached = self._downstream.get(base)
        if cached is not None:
            return cached
        if base in self._no_effect_bases:
            cone: FrozenSet[str] = frozenset()
            self._downstream[base] = cone
            return cone
        if self._instances is None:
            roots = [base] if base in self._successors else []
        else:
            roots = self._instances.get(base, [])
        if not roots:
            raise NoiseModelError(f"unknown node {base!r} in incremental analysis")
        seen = set(roots)
        queue = deque(roots)
        while queue:
            for consumer in self._successors[queue.popleft()]:
                if consumer not in seen:
                    seen.add(consumer)
                    queue.append(consumer)
        cone = frozenset(seen)
        self._downstream[base] = cone
        return cone

    def ancestors_of(self, target: str) -> FrozenSet[str]:
        """The ancestor closure of one working-graph node (itself included).

        Error enclosures of nodes outside this set can never reach the
        target: operands of an ancestor are ancestors, so the closure is a
        self-contained subsystem and everything else is dead state for
        this output.
        """
        # Delegates to the analyzer's cached closure — the very same set
        # its full sweep restricts error propagation to, so incremental
        # and from-scratch analyses agree even on which domain
        # violations they can encounter.
        return self.analyzer._ancestor_closure(target)

    def cone_of(self, base: str, target: str) -> Tuple[str, ...]:
        """Re-propagation schedule for a change at ``base`` toward ``target``.

        The downstream cone of ``base`` intersected with the ancestor
        closure of ``target``, in topological order — the exact set of
        nodes whose error must be recomputed for this output.  A change
        that cannot reach the target (e.g. feeding only the other output
        of a butterfly) yields an empty schedule.
        """
        key = (base, target)
        cached = self._cones.get(key)
        if cached is not None:
            return cached
        relevant = self.downstream_of(base) & self.ancestors_of(target)
        schedule = tuple(sorted(relevant, key=self._position.__getitem__))
        self._cones[key] = schedule
        return schedule

    # ------------------------------------------------------------------ #
    # source / assignment synchronization
    # ------------------------------------------------------------------ #
    def _instances_of(self, base: str) -> List[str]:
        """The working-graph instances whose source is ``base``'s format."""
        return [base] if self._instances is None else self._instances.get(base, [])

    def _source_of(self, inst: str, fmt: Any) -> Any:
        """The quantization source of ``inst`` under ``fmt`` (``None`` for no format)."""
        if fmt is None:
            return None
        key = (inst, fmt)
        source = self._source_cache.get(key)
        if source is None:
            source = source_for_node(
                self.analyzer.graph.node(inst), fmt, self.quantization, self.overflow
            )
            self._source_cache[key] = source
        return source

    def _set_sources(self, sources: Sequence[Tuple[str, Any]]) -> None:
        """Install ``(instance, source)`` pairs; a ``None`` source removes one."""
        by_node = self.analyzer._sources_by_node
        for inst, source in sources:
            if source is None:
                by_node.pop(inst, None)
            else:
                by_node[inst] = source

    def _sync_sources(self, assignment: WordLengthAssignment) -> None:
        """Point the analyzer's quantization sources at ``assignment``."""
        if (
            assignment.quantization is not self.quantization
            or assignment.overflow is not self.overflow
        ):
            raise NoiseModelError(
                "incremental analysis requires fixed quantization/overflow modes; "
                "build a new IncrementalAnalyzer to change them"
            )
        if assignment is self._synced:
            return
        # Applied only once every source is built, so a failure leaves
        # the sources on the previous assignment.
        self._set_sources(
            [
                (inst, self._source_of(inst, assignment.formats.get(base)))
                for base in changed_formats(assignment, self._synced)
                for inst in self._instances_of(base)
            ]
        )
        self._synced = assignment

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def _values_of(self, method: str) -> Dict[str, Any]:
        """Value enclosures of every node (computed once per method)."""
        values = self._values.get(method)
        if values is None:
            analyzer = self.analyzer
            context = AffineContext() if method == "aa" else None
            values = {}
            for name in analyzer.topo_order:
                values[name] = analyzer._value_of(
                    method, name, analyzer.graph.node(name), values, context
                )
            self._values[method] = values
            self._contexts[method] = context
        return values

    def _rules_of(self, method: str) -> Dict[str, ErrorRule]:
        """One error rule per working-graph node (built once per method).

        ``aa`` nodes (which ``pna`` shares) and the hot ``ia`` ops get
        their compiled rule; every other node calls the generic
        :meth:`DatapathNoiseAnalyzer._error_of`.
        """
        rules = self._rules.get(method)
        if rules is None:
            analyzer = self.analyzer
            values = self._values_of(method)
            context = self._contexts[method]
            if method == "aa":
                own_of = _own_terms(analyzer, context)
            rules = {}
            for name in analyzer.topo_order:
                node = analyzer.graph.node(name)
                if method == "ia":
                    rule = _compile_ia_rule(analyzer, name, node, values)
                elif method == "aa":
                    rule = _compile_aa_rule(name, node, values, context, own_of)
                else:
                    rule = None
                rules[name] = rule or _generic_rule(analyzer, method, name, node, values, context)
            self._rules[method] = rules
        return rules

    def _update(
        self, assignment: WordLengthAssignment, method: str, target: str, commit: bool
    ) -> Mapping[str, Any]:
        """Bring the cached errors of ``(method, target)`` up to date.

        Each re-propagated node runs its rule from :meth:`_rules_of` —
        compiled float code for ``aa`` and the hot ``ia`` ops.  Returns the error
        mapping reflecting the candidate: the committed ``state.errors``
        dict itself, updated in place, or for non-committing probes an
        :class:`_Overlay` holding just the cone and reading every other
        node from the committed errors, so a probe costs O(cone).
        """
        self._sync_sources(assignment)
        rules = self._rules_of(method)

        state_key = (method, target)
        state = self._states.get(state_key)
        if state is None:
            ancestors = self.ancestors_of(target)
            errors: Any = {}
            schedule = [name for name in self.analyzer.topo_order if name in ancestors]
            for name in schedule:
                errors[name] = rules[name](errors)
            state = _TargetState(errors, assignment)
            self._states[state_key] = state
            self.stats.last_recomputed = tuple(schedule)
            return state.errors

        if commit:
            pending = self._pending_overlay
            if (
                pending is not None
                and pending[0] == state_key
                and pending[1] is assignment
                and pending[3] is state.assignment
            ):
                # The candidate being committed is exactly the overlay we
                # just probed: adopt its scratch layer wholesale, no diff
                # or re-propagation needed.
                self._pending_overlay = None
                state.errors.update(pending[2])
                state.assignment = assignment
                self.stats.last_recomputed = ()
                return state.errors

        stale = changed_formats(assignment, state.assignment)
        if not stale:
            self.stats.last_recomputed = ()
            return state.errors

        committing = commit or len(stale) >= AUTO_COMMIT_AFTER
        if committing:
            self._pending_overlay = None

        order: Any
        if len(stale) == 1:
            order = self.cone_of(stale[0], target)
        else:
            cone: set[str] = set()
            for base in stale:
                cone.update(self.cone_of(base, target))
            order = sorted(cone, key=self._position.__getitem__)
        if committing:
            errors = state.errors
            state.assignment = assignment
        else:
            errors = _Overlay(state.errors)
        try:
            for name in order:
                errors[name] = rules[name](errors)
        except Exception:
            if committing:
                # A rule that raised mid-cone (e.g. a DomainError from a
                # candidate whose errors leave a sqrt/log operand's
                # domain) leaves the committed baseline half-updated;
                # drop it so the next analysis rebuilds from scratch
                # instead of propagating a corrupt state.
                self._states.pop(state_key, None)
            raise
        if not committing:
            self._pending_overlay = (state_key, assignment, errors, state.assignment)
        self.stats.nodes_recomputed += len(order)
        self.stats.last_recomputed = tuple(order)
        return errors

    def analyze(
        self,
        assignment: WordLengthAssignment,
        method: str = "pna",
        output: str | None = None,
        commit: bool = True,
        contributions: bool = True,
    ) -> NoiseReport:
        """Analyze ``assignment``, reusing everything a change can't touch.

        With ``commit=True`` (the default) the candidate becomes the new
        baseline.  With ``commit=False`` the cone is evaluated in a
        scratch overlay and discarded — the mode an optimizer's probe
        loop wants — unless the candidate has drifted
        :data:`AUTO_COMMIT_AFTER` or more nodes from the baseline, in which
        case it is committed anyway to keep later cones small.
        ``contributions`` is forwarded to :meth:`DatapathNoiseAnalyzer.report`.
        """
        method = _checked_method(method)
        analyzer = self.analyzer
        target = analyzer._resolve_output(output)
        # The probabilistic method rides the AA propagation rules and
        # caches (state keys are per *algebra*, so "pna" and "aa" probes
        # share cones); only the report/noise-measure stage differs.
        algebra = propagation_algebra(method)
        errors = self._update(assignment, algebra, target, commit)
        return analyzer.report(method, target, errors[target], self._values[algebra], contributions)

    def noise_power(
        self,
        assignment: WordLengthAssignment,
        method: str = "pna",
        output: str | None = None,
        commit: bool = False,
        confidence: float | None = None,
    ) -> float:
        """Output noise power of ``assignment`` — the probe fast path.

        Identical to ``analyze(...).noise_power`` but skips report
        construction entirely; a word-length search prices thousands of
        candidates from this single number.  ``confidence`` switches the
        measure from mean-square power to the confidence-bounded reading
        (see :meth:`DatapathNoiseAnalyzer.effective_noise_power`).
        """
        analyzer = self.analyzer
        target = analyzer._resolve_output(output)
        errors = self._update(assignment, propagation_algebra(method), target, commit)
        return analyzer.effective_noise_power(method, errors[target], confidence)

    def probe_moves(
        self,
        assignment: WordLengthAssignment,
        moves: Sequence[Tuple[str, Any]],
        method: str,
        output: str | None = None,
        confidence: float | None = None,
    ) -> List[float]:
        """Noise power of every one-node move from ``assignment``, one cone each.

        ``assignment`` becomes the committed baseline of ``(method,
        output)``.  Each move ``(base, fmt)`` then swaps ``base``'s
        quantization sources for ``fmt``'s, re-propagates
        ``cone_of(base, target)`` into an overlay of the committed errors,
        reads the noise measure and swaps the sources back, so lane *k*
        equals ``noise_power(assignment.with_formats({base: fmt}))``
        without building that assignment or diffing it.

        A move with no format (``fmt`` is ``None``) and a lane whose cone
        leaves a domain (``DomainError`` / ``DivisionByZeroIntervalError``;
        an error past the float range raises the ``DomainError``
        subclass ``NonFiniteError``) price ``inf``; a value sweep that
        fails prices every lane ``inf``.
        A baseline that itself leaves a domain has no committed errors, so
        each probe then propagates the target's whole ancestor closure.
        Every probe's schedule counts in :attr:`stats`.
        """
        method = _checked_method(method)
        analyzer = self.analyzer
        target = analyzer._resolve_output(output)
        algebra = propagation_algebra(method)
        prices = [math.inf] * len(moves)
        try:
            rules = self._rules_of(algebra)
        except (DomainError, DivisionByZeroIntervalError):
            return prices
        whole: Tuple[str, ...] | None = None
        try:
            committed: Dict[str, Any] = self._update(assignment, algebra, target, commit=True)
        except (DomainError, DivisionByZeroIntervalError):
            committed = {}
            closure = self.ancestors_of(target)
            whole = tuple(name for name in analyzer.topo_order if name in closure)
        by_node = analyzer._sources_by_node
        recomputed: List[str] = []
        for lane, (base, fmt) in enumerate(moves):
            if fmt is None:
                continue
            instances = self._instances_of(base)
            order = whole or self.cone_of(base, target)
            swapped = [(inst, self._source_of(inst, fmt)) for inst in instances]
            saved = [(inst, by_node.get(inst)) for inst in instances]
            errors = _Overlay(committed)
            try:
                self._set_sources(swapped)
                for name in order:
                    errors[name] = rules[name](errors)
                prices[lane] = analyzer.effective_noise_power(method, errors[target], confidence)
            except (DomainError, DivisionByZeroIntervalError):
                pass
            finally:
                self._set_sources(saved)
            recomputed.extend(order)
        self.stats.nodes_recomputed += len(recomputed)
        self.stats.last_recomputed = tuple(recomputed)
        return prices

    def commit(self, assignment: WordLengthAssignment) -> None:
        """Promote ``assignment`` to the committed baseline of every state.

        Called when a search accepts a candidate as its new current
        design; subsequent overlay probes then pay only their own cone.
        No report is built — this is purely a state promotion.
        """
        for method, target in list(self._states):
            self._update(assignment, method, target, commit=True)
