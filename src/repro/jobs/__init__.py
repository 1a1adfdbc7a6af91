"""Process-parallel job runner for embarrassingly decomposable workloads.

The analysis / optimization benchmark matrix — and the optimizer's
Monte-Carlo validation — decompose into independent
(circuit x method x strategy) work units.  This package shards them:

* :class:`~repro.jobs.spec.JobSpec` / :class:`~repro.jobs.spec.JobResult`
  describe one unit and its captured outcome (value or error+traceback,
  wall and CPU time, deterministic seed, attempt counters);
* :func:`~repro.jobs.spec.derive_seed` derives per-job seeds from the
  job *key*, never from scheduling, so any worker count reproduces the
  same numbers;
* :class:`~repro.jobs.runner.JobRunner` executes a batch through one
  attempt scheduler, in-process or on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, returning
  results in submission order, with per-job timeouts, a
  :class:`~repro.jobs.policy.RetryPolicy` (deterministic jittered
  backoff), and broken-pool respawn-and-resubmit recovery;
* :class:`~repro.jobs.checkpoint.JobCheckpoint` streams finished jobs
  to an append-only JSONL log so an interrupted batch resumes without
  recomputing (and :class:`~repro.jobs.checkpoint.SearchCheckpoint`
  snapshots iterative searches atomically);
* :class:`~repro.jobs.faults.FaultPlan` injects deterministic crashes,
  hangs, and worker kills so every recovery path above is testable —
  and provably answer-preserving;
* :func:`~repro.jobs.canonical.canonical_document` strips the volatile
  (timing + fault bookkeeping) layer of a benchmark document so
  serial-vs-parallel — and faulted-vs-clean — bit-identity is testable
  with ``==``.
"""

from repro.jobs.canonical import canonical_document, is_volatile_key
from repro.jobs.checkpoint import CHECKPOINT_FORMAT, JobCheckpoint, SearchCheckpoint
from repro.jobs.faults import FAULT_KINDS, FaultPlan
from repro.jobs.policy import NO_RETRY, ExecutionContext, RetryPolicy
from repro.jobs.runner import JobRunner, RunStats, execute_job, summarize_run
from repro.jobs.spec import JobResult, JobSpec, derive_seed

__all__ = [
    "CHECKPOINT_FORMAT",
    "FAULT_KINDS",
    "ExecutionContext",
    "FaultPlan",
    "JobCheckpoint",
    "JobRunner",
    "JobResult",
    "JobSpec",
    "NO_RETRY",
    "RetryPolicy",
    "RunStats",
    "SearchCheckpoint",
    "canonical_document",
    "derive_seed",
    "execute_job",
    "is_volatile_key",
    "summarize_run",
]
