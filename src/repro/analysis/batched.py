"""Batched candidate pricing: one call prices every single-node move.

:class:`BatchedAnalyzer` prices *n* single-node word-length moves of one
design for one :class:`~repro.analysis.incremental.IncrementalAnalyzer`.
It widens each move's format exactly like
:meth:`OptimizationProblem.evaluate` widens a candidate, then hands the
whole batch to :meth:`IncrementalAnalyzer.probe_moves`, which commits the
design and prices each move by one cone re-propagation over the
committed errors.  Every method prices this way: ``ia`` and ``aa`` (which
``pna`` shares) cones run the engine's compiled scalar rules, ``taylor``
cones the generic ones.  A lane equals the scalar analysis of
its moved design bit for bit, and a lane that cannot be analyzed (a
domain violation, or a move with no coverable format) prices ``inf``.

An optimization problem builds its pricer over its own search engine.
The problem memoizes every lane it prices and serves a later evaluation
of a priced move from that lane, so a greedy descent analyzes none of
the shaves it accepts.  It commits each accepted design to the engine
only when the engine is next used, an analysis or a priced batch.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import NoiseModelError
from repro.intervals.interval import Interval
from repro.noisemodel.assignment import WordLengthAssignment, moved_format

__all__ = ["BatchedAnalyzer"]


class BatchedAnalyzer:
    """The batched move pricer of one incremental engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.analysis.incremental.IncrementalAnalyzer` this
        pricer probes.  A priced batch commits its design as the engine's
        baseline (:meth:`IncrementalAnalyzer.probe_moves`).
    ranges:
        Per-node value ranges.  Each move is coverage-widened exactly
        like :meth:`OptimizationProblem.evaluate` widens a candidate, so
        batched prices match evaluated prices bit for bit.
    """

    def __init__(self, engine: Any, ranges: Mapping[str, Interval]) -> None:
        self._engine = engine
        self.node_ranges = dict(ranges)
        self._widened: Dict[Tuple[str, int, int, bool, int], Any] = {}
        #: Move probes on the incremental engine: one per lane that has a
        #: format, over every batch.
        self.fallback_probes = 0

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

        This is the greedy inner loop.  The batch goes to
        :meth:`IncrementalAnalyzer.probe_moves`, which makes
        ``assignment`` the engine's baseline and re-propagates one cone
        per lane that has a format, each counted in
        :attr:`fallback_probes`.
        """
        engine = self._engine
        if assignment.quantization is not engine.quantization or (
            assignment.overflow is not engine.overflow
        ):
            raise NoiseModelError(
                "batched pricing requires the engine's quantization and overflow modes"
            )
        lanes = [(node, self._moved_format(assignment, node, frac)) for node, frac in moves]
        self.fallback_probes += sum(fmt is not None for _, fmt in lanes)
        prices = engine.probe_moves(assignment, lanes, method, output, confidence)
        return np.array(prices, dtype=np.float64)

    def _moved_format(self, assignment: WordLengthAssignment, node: str, new_frac: int):
        """The widened format of move ``(node, new_frac)``, or ``None`` if it has none.

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
