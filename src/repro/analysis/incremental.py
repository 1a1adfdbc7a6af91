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
  result is read out of a scratch layer and discarded, so consecutive
  probes of different nodes from the same current design each pay one
  cone, not two.  When a search accepts a move it promotes the candidate
  with :meth:`commit` (see ``OptimizationProblem.notify_accepted``), and
  a candidate that drifts ``>= AUTO_COMMIT_AFTER`` nodes away from the
  committed baseline is committed automatically so un-notified callers
  degrade gracefully instead of re-propagating ever-growing cones.

Because the cone re-propagation calls the very same per-node rules
(:meth:`DatapathNoiseAnalyzer._error_of`) as the full sweep, incremental
reports match a from-scratch analysis exactly, for every method.  AA's
fresh linearization symbols get other names than in a full sweep, but a
name only identifies a symbol: each form's terms are built in the same
order by the same float operations, so every reduction adds the same
numbers in the same order.  ``tests/test_incremental.py``
(``test_incremental_equals_full_on_random_perturbations``) holds every
report field to a from-scratch analysis with ``==``, and
``tests/test_evaluate_cache.py`` (``TestEvaluatorEquivalence``) holds
every candidate of whole greedy searches to it the same way.
"""

from __future__ import annotations

from collections import ChainMap, deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Tuple

from repro.errors import NoiseModelError
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
            self._instances = {
                base: insts
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
        self._states: Dict[Tuple[str, str], _TargetState] = {}
        # Last discarded overlay, kept one call long: when a search accepts
        # the probe it just evaluated, commit() merges the overlay instead
        # of re-propagating the identical cone.
        self._pending_overlay: Tuple[Tuple[str, str], Any, Dict[str, Any], Any] | None = None
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
        graph = self.analyzer.graph
        sources: List[Tuple[str, Any]] = []
        for base in changed_formats(assignment, self._synced):
            fmt = assignment.formats.get(base)
            instances = [base] if self._instances is None else self._instances.get(base, [])
            for inst in instances:
                if fmt is None:
                    sources.append((inst, None))
                    continue
                key = (inst, fmt)
                source = self._source_cache.get(key)
                if source is None:
                    source = source_for_node(
                        graph.node(inst), fmt, self.quantization, self.overflow
                    )
                    self._source_cache[key] = source
                sources.append((inst, source))
        # Applied only once every source is built, so a failure leaves
        # the sources on the previous assignment.
        by_node = self.analyzer._sources_by_node
        for inst, source in sources:
            if source is None:
                by_node.pop(inst, None)
            else:
                by_node[inst] = source
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

    def _update(
        self, assignment: WordLengthAssignment, method: str, target: str, commit: bool
    ) -> Mapping[str, Any]:
        """Bring the cached errors of ``(method, target)`` up to date.

        Returns the error mapping reflecting the candidate — the
        committed ``state.errors`` dict itself, or a discardable overlay
        layered on top of it for non-committing probes.
        """
        analyzer = self.analyzer
        graph = analyzer.graph
        self._sync_sources(assignment)

        state_key = (method, target)
        state = self._states.get(state_key)
        if state is None:
            values = self._values_of(method)
            context = self._contexts[method]
            ancestors = self.ancestors_of(target)
            errors: Any = {}
            schedule = [name for name in analyzer.topo_order if name in ancestors]
            for name in schedule:
                errors[name] = analyzer._error_of(
                    method, name, graph.node(name), values, errors, context
                )
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
        values = self._values[method]
        context = self._contexts[method]
        if committing:
            errors = state.errors
            state.assignment = assignment
        else:
            errors = ChainMap({}, state.errors)
        try:
            for name in order:
                errors[name] = analyzer._error_of(
                    method, name, graph.node(name), values, errors, context
                )
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
            self._pending_overlay = (
                state_key,
                assignment,
                errors.maps[0],
                state.assignment,
            )
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
        ``contributions`` is forwarded to the report builders (see
        :meth:`DatapathNoiseAnalyzer.analyze`).
        """
        method = str(method).lower()
        if method not in ANALYSIS_METHODS:
            raise NoiseModelError(
                f"unknown analysis method {method!r}; choose from {ANALYSIS_METHODS}"
            )
        analyzer = self.analyzer
        target = analyzer._resolve_output(output)
        # The probabilistic method rides the AA propagation rules and
        # caches (state keys are per *algebra*, so "pna" and "aa" probes
        # share cones); only the report/noise-measure stage differs.
        algebra = propagation_algebra(method)
        errors = self._update(assignment, algebra, target, commit)
        builder = getattr(analyzer, f"_report_{method}")
        return builder(target, errors[target], self._values[algebra], contributions)

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

    def commit(self, assignment: WordLengthAssignment) -> None:
        """Promote ``assignment`` to the committed baseline of every state.

        Called when a search accepts a candidate as its new current
        design; subsequent overlay probes then pay only their own cone.
        No report is built — this is purely a state promotion.
        """
        for method, target in list(self._states):
            self._update(assignment, method, target, commit=True)
