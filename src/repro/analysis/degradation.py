"""Structured records of graceful engine degradation.

When a fast engine breaks — the batched compiler rejects a graph, or a
batched pricing sweep raises — the optimization should *keep going* on
the slower engine, not die hundreds of accepted moves into a search.
Each such fallback is recorded as a :class:`DegradationEvent` on the
owning problem/pipeline (``batched → incremental`` for candidate
pricing, ``sharded → in-process`` for Monte-Carlo validation), so a run
that silently lost its fast path is still diagnosable after the fact.
The incremental engine is the one candidate evaluator and has nothing
below it: its failures propagate.

Degradation changes *which engine computes* an answer, never the answer
itself: ``tests/test_api_redesign.py``
(``test_batched_matches_fresh_and_incremental_all_methods``,
``test_batched_property_random_circuits``) holds every batched lane to
a from-scratch analysis with ``==``, which is what makes the fallback
safe to take silently.
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
        ``"batched-price"``, ``"montecarlo-sharded"``).
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
