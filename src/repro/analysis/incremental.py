"""Incremental noise re-analysis for word-length search loops.

A word-length optimizer calls the noise analyzer once per candidate, and
almost every candidate differs from the previous one at a *single* node
(greedy bit-stealing) or at most a couple of nodes (annealing moves).  A
full :class:`~repro.noisemodel.analyzer.DatapathNoiseAnalyzer` run
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
  ``BatchedAnalyzer`` sends it every batch except mean-square ``aa`` /
  ``pna``, which has a compiled vector program.

The cone re-propagation of ``aa``, ``taylor``, ``sna`` and ``pna``
calls the very same per-node rules
(:meth:`DatapathNoiseAnalyzer._error_of`) as the full sweep.  ``ia``, the
scalar search's method, runs a compiled twin of those rules instead: on
first ``ia`` use the engine builds one closure per working-graph node
(:func:`_compile_ia_rule`) with its operand names and value enclosures
bound, which repeats the generic rule's float operations in the same
order — the same endpoint-product tuples fed to ``min``/``max``, the same
left fold of live terms, the same float-zero shortcuts — so its errors
are bit-identical, signed zeros included.  The rare ops (div, sqrt, exp,
log, abs, min, max, mux) keep the generic rule.

Either way incremental reports match a from-scratch analysis exactly,
for every method.  AA's fresh linearization symbols get other names than
in a full sweep, but a name only identifies a symbol: each coefficient is
built by the same float operations.  The AA reductions
(``AffineForm.radius`` and the AA variance) are ``math.fsum``, which is
correctly rounded, so they do not depend on the order of a form's terms
at all; the Taylor reductions add the same numbers in the same order.
``tests/test_incremental.py``
(``test_incremental_equals_full_on_random_perturbations``) holds every
report field to a from-scratch analysis with ``==``,
``tests/test_compiled_ia_rules.py`` holds every compiled ``ia`` rule to
the generic one, ``tests/test_probe_moves.py`` holds every probed move
to :meth:`noise_power` of the moved design, and
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
from repro.histogram.pdf import HistogramPDF
from repro.intervals.affine import AffineContext
from repro.intervals.interval import Interval
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
    """The compiled twin of ``_error_rule(method="ia")`` for one node.

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
    """
    op = node.op
    get_source = analyzer._sources_by_node.get
    fast = Interval._fast
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
                return fast(lo + own.lo, hi + own.hi)
            return fast(lo, hi)

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
                return fast(lo + own.lo, hi + own.hi)
            return fast(lo, hi)

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
        input_pdfs: Mapping[str, HistogramPDF] | None = None,
        horizon: int = 8,
        bins: int = 32,
    ) -> None:
        self.analyzer = DatapathNoiseAnalyzer(
            graph,
            assignment,
            input_ranges,
            input_pdfs=input_pdfs,
            horizon=horizon,
            bins=bins,
        )
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

        ``ia`` nodes get their compiled twin where one exists; every
        other node calls the generic :meth:`DatapathNoiseAnalyzer._error_of`.
        """
        rules = self._rules.get(method)
        if rules is None:
            analyzer = self.analyzer
            values = self._values_of(method)
            context = self._contexts[method]
            rules = {}
            for name in analyzer.topo_order:
                node = analyzer.graph.node(name)
                rule = _compile_ia_rule(analyzer, name, node, values) if method == "ia" else None
                rules[name] = rule or _generic_rule(analyzer, method, name, node, values, context)
            self._rules[method] = rules
        return rules

    def _update(
        self, assignment: WordLengthAssignment, method: str, target: str, commit: bool
    ) -> Mapping[str, Any]:
        """Bring the cached errors of ``(method, target)`` up to date.

        Each re-propagated node runs its rule from :meth:`_rules_of` —
        compiled float code for the hot ``ia`` ops.  Returns the error
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
        method: str = "sna",
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
        method: str = "sna",
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
        leaves a domain (``DomainError`` / ``DivisionByZeroIntervalError``)
        price ``inf``; a value sweep that fails prices every lane ``inf``.
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
