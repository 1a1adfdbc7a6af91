"""Structured records of graceful engine degradation.

When a fast evaluation engine breaks — the batched compiler rejects a
graph, a compiled probe raises, the incremental analyzer trips over an
overlay — the optimization should *keep going* on the next-slower
engine, not die hundreds of accepted moves into a search.  Each such
fallback is recorded as a :class:`DegradationEvent` on the owning
problem/pipeline (``batched → incremental → fresh`` for candidate
evaluation, ``sharded → in-process`` for Monte-Carlo validation), so a
run that silently lost its fast path is still diagnosable after the
fact.

Degradation changes *which engine computes* an answer, never the answer
itself: every engine is bit-compatible by the equivalence gates in
``bench_perf``, which is what makes the fallback safe to take silently.
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
        Where the failure surfaced (``"batched-compile"``,
        ``"batched-price"``, ``"incremental"``, ``"montecarlo-sharded"``).
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
        """JSON-serializable view (benchmark documents embed these)."""
        return {
            "stage": self.stage,
            "from_engine": self.from_engine,
            "to_engine": self.to_engine,
            "reason": self.reason,
        }
