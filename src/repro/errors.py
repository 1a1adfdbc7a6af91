"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by the library derives from
:class:`ReproError` so downstream users can catch library failures with a
single ``except`` clause while still being able to distinguish the common
failure classes (bad interval bounds, empty histograms, infeasible
word-length constraints, malformed dataflow graphs, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "IntervalError",
    "EmptyIntervalError",
    "DivisionByZeroIntervalError",
    "DomainError",
    "HistogramError",
    "NonFiniteError",
    "FixedPointError",
    "DFGError",
    "NodeNotFoundError",
    "CycleError",
    "NoiseModelError",
    "OptimizationError",
    "UnknownOptionError",
    "DesignError",
    "JobError",
    "CheckpointError",
    "FaultInjectionError",
]


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class IntervalError(ReproError):
    """Raised for malformed interval operations (e.g. ``lo > hi``)."""


class EmptyIntervalError(IntervalError):
    """Raised when an operation produces or requires an empty interval."""


class DivisionByZeroIntervalError(IntervalError):
    """Raised when dividing by an interval that contains zero."""


class DomainError(IntervalError):
    """Raised when an operand enclosure leaves a function's domain.

    Carries the offending ``node`` name when the violation is detected
    during a dataflow-graph analysis, so the report points at the actual
    signal (``sqrt``/``log`` of a range crossing the domain boundary)
    instead of propagating NaN/inf into downstream enclosures.
    """

    def __init__(self, message: str, node: "str | None" = None) -> None:
        super().__init__(message)
        self.node = node


class HistogramError(ReproError):
    """Raised for malformed histogram PDFs (bad edges, probabilities, ...)."""


class NonFiniteError(DomainError, HistogramError):
    """Raised when an enclosure overflows the float range.

    A NaN interval bound (``inf - inf``, ``0 * inf``) or a non-finite
    affine error read as a distribution means the error left the range
    of float64, the domain every enclosure lives in.  As a
    :class:`DomainError`, the word-length search prices such a design
    ``inf``.  It is a :class:`HistogramError` too: the distribution
    readouts of :mod:`repro.analysis.probabilistic` raise it for a
    non-finite affine form.
    """


class FixedPointError(ReproError):
    """Raised for invalid fixed-point formats or conversions."""


class DFGError(ReproError):
    """Raised for malformed dataflow graphs."""


class NodeNotFoundError(DFGError):
    """Raised when a node id is not present in a dataflow graph."""


class CycleError(DFGError):
    """Raised when a combinational cycle (not broken by delays) is found."""


class NoiseModelError(ReproError):
    """Raised when a quantization-noise model cannot be constructed."""


class OptimizationError(ReproError):
    """Raised when a word-length optimization cannot make progress."""


class UnknownOptionError(OptimizationError, TypeError):
    """Raised when a strategy is given an option its constructor does not take.

    A ``TypeError`` too, as the bare constructor call would have raised.
    """


class DesignError(ReproError):
    """Raised when a case-study design is instantiated with bad parameters."""


class JobError(ReproError):
    """Raised when a sharded job batch cannot run or a worker fails.

    Carries the failing job's captured error and traceback when a job
    raised, or a broken-pool diagnosis when a worker process died
    without reporting a result.  ``completed`` holds the successful
    :class:`~repro.jobs.spec.JobResult` objects the batch had already
    finished when it aborted, so callers can salvage partial work even
    without a checkpoint.
    """

    def __init__(self, message: str, completed: "list | None" = None) -> None:
        super().__init__(message)
        self.completed = list(completed) if completed else []


class CheckpointError(JobError):
    """Raised for unreadable, mismatched, or unwritable job checkpoints."""


class FaultInjectionError(JobError):
    """Transient failure injected by a :class:`~repro.jobs.faults.FaultPlan`."""
