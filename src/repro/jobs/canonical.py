"""Canonicalization of benchmark documents for determinism checks.

The sharded drivers promise that a parallel run merges to the *same*
``BENCH_*.json`` as a serial run — except, unavoidably, for measured
times (wall clocks differ run-to-run even serially) and for the
``parallel`` execution record itself (it names the worker count).
:func:`canonical_document` strips exactly that volatile layer so two
documents can be compared with ``==``:

* every key ending in ``_s`` (``runtime_s``, ``wall_s``, ``cpu_total_s``,
  ``incremental_s``, ...);
* every key containing ``speedup`` (timing ratios) and the ``passed``
  verdict, which timing-derived gates may feed;
* the ``parallel`` block and any embedded ``workers`` count;
* the fault-tolerance bookkeeping (``job_attempts`` / ``job_timeouts``
  per row, plus the retry/timeout/pool-restart counters inside the
  ``parallel`` block): retries and timeout kills depend on scheduling
  and injected faults, never on the merged answer.

Everything else — bounds, moments, SNRs, costs, word lengths, seeds,
enclosure and validation verdicts — must match bit for bit.
"""

from __future__ import annotations

from typing import Any

__all__ = ["EXECUTION_COUNTER_KEYS", "canonical_document", "is_volatile_key"]

#: Fault-tolerance execution counters: how many tries a row took, its
#: timeout kills, whether it was replayed from a checkpoint, and the
#: injected-fault record.  Execution shape, never answer.
EXECUTION_COUNTER_KEYS = ("job_attempts", "job_timeouts", "job_resumed", "fault_injection")

#: Keys dropped wholesale (execution-shape records and timing-derived
#: gate verdicts, which may legitimately differ between backends).
_VOLATILE_KEYS = {"parallel", "workers", "passed", *EXECUTION_COUNTER_KEYS}


def is_volatile_key(key: str) -> bool:
    """True for keys whose values are timing- or scheduling-dependent."""
    return key.endswith("_s") or "speedup" in key or key in _VOLATILE_KEYS


def canonical_document(document: Any) -> Any:
    """Recursively drop volatile keys; leaves and lists pass through."""
    if isinstance(document, dict):
        return {
            key: canonical_document(value)
            for key, value in document.items()
            if not is_volatile_key(key)
        }
    if isinstance(document, (list, tuple)):
        return [canonical_document(item) for item in document]
    return document
