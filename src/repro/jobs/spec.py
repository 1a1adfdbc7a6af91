"""Job specifications, results and deterministic seed derivation.

A :class:`JobSpec` names one independent work unit — a picklable
module-level callable plus its arguments — and a :class:`JobResult`
captures everything the parent needs to merge shards deterministically:
the returned value (or the error and traceback), the seed the job was
handed, and both wall-clock and CPU time.

Determinism is the design center.  A job's seed is derived from the
*job key*, never from the worker that happens to execute it, so results
are bit-identical whether the batch runs serially, on two workers, or on
sixteen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Tuple

__all__ = ["JobSpec", "JobResult", "derive_seed"]

#: Separator folded between key parts before hashing; keeps
#: ``("ab", "c")`` and ``("a", "bc")`` from colliding.
_SEP = "\x1f"


def derive_seed(base_seed: int, *key_parts: object) -> int:
    """Deterministic 32-bit seed for one job, independent of scheduling.

    Unlike :func:`hash`, which is salted per interpreter, the derivation
    is stable across processes, platforms and worker counts: the base
    seed and the job-key parts are hashed with SHA-256 and the leading
    four bytes become the seed.  Two jobs with different keys get
    (overwhelmingly likely) different, uncorrelated seeds; the same job
    always gets the same one.
    """
    text = _SEP.join([str(int(base_seed)), *map(str, key_parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class JobSpec:
    """One independent work unit for a :class:`~repro.jobs.runner.JobRunner`.

    Parameters
    ----------
    key:
        Unique, deterministic identifier (e.g. ``"optimize/fir4/aa/greedy"``).
        Results are reported and merged under this key.
    fn:
        The callable to execute.  For the pool executor it must be a
        **module-level** function (``ProcessPoolExecutor`` pickles it).
    args / kwargs:
        Positional and keyword arguments, likewise picklable.
    seed:
        The deterministic per-job seed (usually :func:`derive_seed` of
        the batch seed and the key).  Bookkeeping only — the runner never
        touches RNG state; pass the seed to ``fn`` explicitly.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None


@dataclass(frozen=True)
class JobResult:
    """Outcome of one executed :class:`JobSpec`.

    ``ok`` distinguishes a job that *returned* from one that *raised*;
    a raising job carries ``error`` (``"ExcType: message"``) and the full
    formatted ``traceback`` so the parent process can surface the worker
    failure verbatim.  ``wall_s`` and ``cpu_s`` time the job body only
    (``time.perf_counter`` / ``time.process_time``), excluding pickling
    and queue latency — ``cpu_s`` is the scheduling-noise-resistant
    number CI gates prefer on shared runners.

    The fault-tolerance layer adds bookkeeping that is **volatile by
    construction** (it depends on scheduling, not on the answer):
    ``attempts`` counts executions of this job including the final one,
    ``timeouts`` counts attempts killed for exceeding the runner's
    wall-clock budget, and ``resumed`` marks a result replayed from a
    checkpoint instead of recomputed.
    """

    key: str
    ok: bool
    value: Any = None
    error: str | None = None
    traceback: str | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    seed: int | None = None
    attempts: int = 1
    timeouts: int = 0
    resumed: bool = False

    def to_dict(self) -> dict:
        """JSON-serializable view (drops ``value``, which may not be JSON)."""
        return {
            "key": self.key,
            "ok": self.ok,
            "error": self.error,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "seed": self.seed,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "resumed": self.resumed,
        }
