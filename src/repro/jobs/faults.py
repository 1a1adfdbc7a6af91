"""Deterministic fault injection for exercising the recovery paths.

A :class:`FaultPlan` decides — as a pure function of its seed, the job
key, and the attempt number — whether an attempt is disturbed and how:

``"exception"``
    Raise :class:`~repro.errors.FaultInjectionError` before the job body
    runs (a transient crash a retry heals).
``"hang"``
    Sleep ``hang_s`` seconds before the job body runs, so a runner
    timeout shorter than ``hang_s`` registers a timeout kill.
``"kill"``
    ``os._exit`` the worker process outright — the hard-crash path that
    breaks the process pool and forces a pool respawn.

Because the draw depends on the *attempt* number and fires **before**
``spec.fn`` executes, a retried attempt that survives returns exactly
the value an undisturbed run would have returned: fault-injected runs
merge bit-identically to clean ones, which is the property CI gates.

With ``max_faults_per_job`` (default 1) every job is guaranteed to run
clean once its faulted attempts are spent, so any plan terminates under
a retry budget of ``max_faults_per_job + 1`` attempts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Tuple

from repro.errors import FaultInjectionError, JobError
from repro.jobs.spec import derive_seed

__all__ = ["FaultPlan", "FAULT_KINDS"]

FAULT_KINDS = ("exception", "hang", "kill")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, picklable schedule of injected faults.

    Parameters
    ----------
    rate:
        Probability in ``[0, 1]`` that a given attempt is disturbed
        (while the job still has faulted attempts left).
    seed:
        Base seed of the fault schedule; independent of the job seeds.
    kinds:
        Subset of :data:`FAULT_KINDS` to draw from.
    hang_s:
        Sleep length of a ``"hang"`` fault; pair with a runner
        ``timeout_s`` below it to exercise the timeout-kill path.
    max_faults_per_job:
        Ceiling on disturbed attempts per job key.  Keeping it below the
        retry budget guarantees every job eventually completes.
    """

    rate: float
    seed: int = 0
    kinds: Tuple[str, ...] = ("exception",)
    hang_s: float = 0.5
    max_faults_per_job: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise JobError(f"fault rate must be in [0, 1], got {self.rate}")
        unknown = [kind for kind in self.kinds if kind not in FAULT_KINDS]
        if unknown or not self.kinds:
            raise JobError(
                f"fault kinds must be a non-empty subset of {FAULT_KINDS}, got {self.kinds!r}"
            )
        if self.hang_s < 0.0:
            raise JobError(f"hang_s must be >= 0, got {self.hang_s}")
        if int(self.max_faults_per_job) < 0:
            raise JobError(f"max_faults_per_job must be >= 0, got {self.max_faults_per_job}")

    def fault_for(self, key: str, attempt: int) -> str | None:
        """The fault kind injected into this attempt, or ``None``.

        A pure function of ``(seed, key, attempt)`` — no RNG state, so
        tests and resumed runs see the same schedule.
        """
        if attempt > self.max_faults_per_job:
            return None
        draw = derive_seed(self.seed, "fault", key, attempt) / 2**32
        if draw >= self.rate:
            return None
        pick = derive_seed(self.seed, "fault-kind", key, attempt) % len(self.kinds)
        return self.kinds[pick]

    def inject(self, key: str, attempt: int) -> str | None:
        """Fire the scheduled fault for this attempt, if any.

        Returns the kind that fired (``"hang"`` returns after sleeping;
        ``"exception"`` raises; ``"kill"`` never returns).
        """
        kind = self.fault_for(key, attempt)
        if kind == "exception":
            raise FaultInjectionError(
                f"injected transient fault into job {key!r} (attempt {attempt})"
            )
        if kind == "hang":
            time.sleep(self.hang_s)
        elif kind == "kill":
            os._exit(86)
        return kind
