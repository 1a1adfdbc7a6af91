"""Structured records of graceful engine degradation.

When a sharded Monte-Carlo validation loses its worker pool, the run
should *keep going* on serial shards, not die after the search it
validates.  Each such fallback is recorded as a :class:`DegradationEvent`
in the caller's log (``NoiseAnalysisPipeline.degradation_log`` or
``OptimizationProblem.degradations``), so a run that silently lost its
fast path is still diagnosable after the fact.  The per-chunk seeds
derive from the chunk index, so the serial rerun reproduces the sharded
numbers.  Candidate pricing has no fallback: both search engines run on
the one incremental analyzer, and its failures propagate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DegradationEvent"]


@dataclass(frozen=True)
class DegradationEvent:
    """One engine fallback taken during an analysis or optimization run.

    Parameters
    ----------
    stage:
        Where the failure surfaced (``"montecarlo-sharded"``).
    from_engine / to_engine:
        The engine abandoned and the engine the run continued on.
    reason:
        ``"ExcType: message"`` of the triggering exception.
    """

    stage: str
    from_engine: str
    to_engine: str
    reason: str

    def to_dict(self) -> dict:
        """JSON-serializable view of the event."""
        return {
            "stage": self.stage,
            "from_engine": self.from_engine,
            "to_engine": self.to_engine,
            "reason": self.reason,
        }
