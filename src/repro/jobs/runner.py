"""Process-parallel execution of independent job shards, fault-tolerantly.

:class:`JobRunner` runs a batch of :class:`~repro.jobs.spec.JobSpec`
work units through one attempt scheduler: a FIFO queue of
``(index, attempt, timeouts)`` entries, and one method,
:meth:`JobRunner._settle`, that books every finished attempt (timeout
conversion, retry, run statistics, checkpoint record).  First attempts
run in submission order; a retry joins the back of the queue at once,
so retries run in the order they failed and no attempt waits.  Two
executors drain the queue:

in-process
    Pops the next entry and runs it with :func:`execute_job`.  It
    serves ``workers == 1``, runners inside a pool worker, and batches
    a pool cannot speed up (one pending job, no timeout, no fault
    plan).  It cannot preempt, so a job past its
    timeout is detected when it returns and discarded like a killed one.
pool
    A :class:`concurrent.futures.ProcessPoolExecutor` fed one job per
    submission.  It kills jobs past their deadline, respawns a broken
    pool and resubmits only the unfinished jobs, at the front of the
    queue.

Both executors return results **in submission order**, never completion
order, and every per-job seed derives from the job key alone — so a
merge over the result list is bit-identical for any worker count, any
retry schedule, and any resume point.  A job that raises is captured as
a failed :class:`JobResult` (error + traceback), not an exception in
the parent; a worker that dies without reporting (killed, segfault) is
retried like any failed attempt and surfaces as :class:`JobError`
(carrying the already-completed results) only once its
``max_attempts`` budget is spent.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import JobError
from repro.jobs.checkpoint import JobCheckpoint
from repro.jobs.faults import FaultPlan
from repro.jobs.spec import JobResult, JobSpec

__all__ = ["JobRunner", "RunStats", "execute_job", "summarize_run"]

#: Poll interval of the pool executor; bounds how late a timeout kill
#: can fire past the deadline.
_POLL_S = 0.05

#: Environment marker set inside every pool worker process.  A
#: :class:`JobRunner` constructed under it (a job that itself shards —
#: e.g. a benchmark cell running the decomposed optimizer) runs every
#: job in-process instead of spawning a pool-inside-a-pool that
#: oversubscribes the machine.  Results are unaffected: both executors
#: are bit-identical by design.
_WORKER_ENV = "REPRO_JOBS_WORKER"


def _mark_worker_process() -> None:
    """Pool initializer: brand this process as a jobs worker."""
    os.environ[_WORKER_ENV] = "1"


def execute_job(
    spec: JobSpec, attempt: int = 1, fault_plan: FaultPlan | None = None
) -> JobResult:
    """Run attempt ``attempt`` of one job, timing it and converting any
    exception into data.

    Module-level so the pool executor can pickle it; the in-process
    executor calls it directly, guaranteeing identical semantics.  The
    ``fault_plan`` is consulted *before* the job body, so an injected
    fault never perturbs a surviving attempt's value.
    """
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        if fault_plan is not None:
            fault_plan.inject(spec.key, attempt)
        value = spec.fn(*spec.args, **dict(spec.kwargs))
    except Exception as exc:  # noqa: BLE001 - the whole point is capture
        return JobResult(
            key=spec.key,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            wall_s=time.perf_counter() - wall,
            cpu_s=time.process_time() - cpu,
            seed=spec.seed,
            attempts=attempt,
        )
    return JobResult(
        key=spec.key,
        ok=True,
        value=value,
        wall_s=time.perf_counter() - wall,
        cpu_s=time.process_time() - cpu,
        seed=spec.seed,
        attempts=attempt,
    )


@dataclass
class RunStats:
    """Fault-tolerance counters of one :meth:`JobRunner.run` call.

    Volatile by construction — retries and restarts depend on
    scheduling, machine load, and injected faults, never on the merged
    answer — so every consumer records them inside the already-stripped
    ``parallel`` block of a benchmark document.
    """

    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    resumed_jobs: int = 0

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "resumed_jobs": self.resumed_jobs,
        }


class _Batch:
    """Scheduler state of one :meth:`JobRunner.run` call."""

    def __init__(self, specs: Sequence[JobSpec], checkpoint: JobCheckpoint | None) -> None:
        self.specs = specs
        self.checkpoint = checkpoint
        # FIFO of (index, attempt, timeouts) attempts still to run.
        self.pending: deque[Tuple[int, int, int]] = deque(
            (index, 1, 0) for index in range(len(specs))
        )
        self.results: Dict[int, JobResult] = {}

    def completed(self) -> List[JobResult]:
        return [result for result in self.results.values() if result.ok]


class JobRunner:
    """Execute independent jobs in-process or on a process pool.

    Parameters
    ----------
    workers:
        Worker-process count.  ``1`` runs every job in-process; above 1
        a pool of that many processes runs every batch it can speed up.
    timeout_s:
        Per-job wall-clock budget.  The pool kills a job past its
        deadline (pool terminated and respawned; the other in-flight
        jobs are resubmitted uncharged); in-process the overrun is
        detected after the fact and the result is converted to a
        timeout failure.  Each kill charges one attempt.
    max_attempts:
        Total attempts per job, the first included.  A failed,
        timed-out or pool-killed attempt is re-queued while budget
        remains; the default ``1`` runs each job once.
    fault_plan:
        Optional :class:`~repro.jobs.faults.FaultPlan` injecting
        deterministic faults ahead of each attempt — the test harness
        for every recovery path above.

    ``backend`` is ``"serial"`` when jobs can only run in-process
    (``workers == 1``, or this runner lives inside a pool worker) and
    ``"process"`` otherwise.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout_s: float | None = None,
        max_attempts: int = 1,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        workers = int(workers)
        if workers < 1:
            raise JobError(f"workers must be >= 1, got {workers}")
        max_attempts = int(max_attempts)
        if max_attempts < 1:
            raise JobError(f"max_attempts must be >= 1, got {max_attempts}")
        if timeout_s is not None and timeout_s <= 0.0:
            raise JobError(f"timeout_s must be > 0, got {timeout_s}")
        # Never nest pools inside a pool worker.
        nested = bool(os.environ.get(_WORKER_ENV))
        self.workers = workers
        self.backend = "serial" if workers == 1 or nested else "process"
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.fault_plan = fault_plan
        self.last_stats = RunStats()

    # ------------------------------------------------------------------ #
    def run(
        self,
        specs: Iterable[JobSpec],
        check: bool = False,
        checkpoint: JobCheckpoint | None = None,
    ) -> List[JobResult]:
        """Execute every job and return results in submission order.

        With ``check=True`` the first failed job raises :class:`JobError`
        carrying the worker's error and traceback; with ``check=False``
        failures come back as ``JobResult(ok=False)`` for the caller to
        inspect.  With a ``checkpoint``, finished jobs stream to its
        append-only log as they complete, jobs already on disk are
        replayed instead of recomputed (``resumed=True``), and a
        ``KeyboardInterrupt`` flushes the log before propagating — an
        interrupted run loses at most the in-flight jobs.
        """
        ordered = list(specs)
        seen: set[str] = set()
        for spec in ordered:
            if spec.key in seen:
                raise JobError(f"duplicate job key {spec.key!r}; keys must be unique")
            seen.add(spec.key)
        self.last_stats = RunStats()
        if not ordered:
            return []
        resumed: Dict[str, JobResult] = {}
        try:
            if checkpoint is not None:
                resumed = checkpoint.begin(ordered)
                self.last_stats.resumed_jobs = len(resumed)
            batch = _Batch([spec for spec in ordered if spec.key not in resumed], checkpoint)
            if self._pool_helps(len(batch.specs)):
                self._run_pool(batch)
            else:
                self._run_in_process(batch)
        finally:
            if checkpoint is not None:
                checkpoint.close()
        by_key = dict(resumed)
        by_key.update({result.key: result for result in batch.results.values()})
        results = [by_key[spec.key] for spec in ordered]
        if check:
            self.raise_on_failure(results)
        return results

    def _pool_helps(self, pending: int) -> bool:
        """Start a pool only to overlap jobs or to isolate one that a
        timeout must kill or an injected fault may crash."""
        if self.backend == "serial" or pending == 0:
            return False
        return pending > 1 or self.timeout_s is not None or self.fault_plan is not None

    # ------------------------------------------------------------------ #
    # the scheduler: one place books every attempt
    # ------------------------------------------------------------------ #
    def _settle(
        self,
        batch: _Batch,
        index: int,
        result: JobResult,
        attempt: int,
        timeouts: int,
        killed: bool = False,
    ) -> None:
        spec = batch.specs[index]
        if killed or (self.timeout_s is not None and result.wall_s > self.timeout_s):
            # Killed at the deadline, or finished past it before a kill
            # could land (in-process attempts always do): either way the
            # overrun attempt is discarded.
            timeouts += 1
            self.last_stats.timeouts += 1
            result = replace(
                result,
                ok=False,
                value=None,
                error=(
                    f"TimeoutError: job exceeded the {self.timeout_s:g}s wall-clock "
                    f"budget (ran {result.wall_s:.2f}s)"
                ),
                traceback=None,
            )
        result = replace(result, attempts=attempt, timeouts=timeouts, seed=spec.seed)
        if result.ok or attempt >= self.max_attempts:
            if batch.checkpoint is not None:
                batch.checkpoint.record(result)
            batch.results[index] = result
            return
        self._retry(batch, index, attempt, timeouts)

    def _retry(self, batch: _Batch, index: int, attempt: int, timeouts: int) -> None:
        self.last_stats.retries += 1
        batch.pending.append((index, attempt + 1, timeouts))

    # ------------------------------------------------------------------ #
    # in-process executor
    # ------------------------------------------------------------------ #
    def _run_in_process(self, batch: _Batch) -> None:
        while batch.pending:
            index, attempt, timeouts = batch.pending.popleft()
            result = execute_job(batch.specs[index], attempt, self.fault_plan)
            self._settle(batch, index, result, attempt, timeouts)

    # ------------------------------------------------------------------ #
    # pool executor (timeout kills, pool respawn)
    # ------------------------------------------------------------------ #
    def _run_pool(self, batch: _Batch) -> None:
        workers = min(self.workers, len(batch.specs))
        window = workers * 2
        max_restarts = len(batch.specs) * self.max_attempts + 4
        futures: Dict[Future, Tuple[int, int, int, float | None]] = {}
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_mark_worker_process
        )
        pool_broken = False
        try:
            while batch.pending or futures:
                pool, pool_broken = self._submit(
                    batch, pool, pool_broken, futures, window, workers, max_restarts
                )
                if not futures:
                    continue  # a failed submit respawned the pool
                done, _running = wait(set(futures), timeout=_POLL_S, return_when=FIRST_COMPLETED)
                for future in done:
                    index, attempt, timeouts, _deadline = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        self._charge_pool_death(batch, index, attempt, timeouts)
                        continue
                    except Exception as exc:  # noqa: BLE001 - result unpickling etc.
                        result = JobResult(
                            key=batch.specs[index].key,
                            ok=False,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    self._settle(batch, index, result, attempt, timeouts)
                if self.timeout_s is not None and futures:
                    pool = self._kill_expired(batch, pool, futures, workers, max_restarts)
                if pool_broken and not futures:
                    pool = self._respawn(batch, pool, workers, max_restarts)
                    pool_broken = False
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _submit(self, batch, pool, pool_broken, futures, window, workers, max_restarts):
        while batch.pending and len(futures) < window and not pool_broken:
            index, attempt, timeouts = entry = batch.pending.popleft()
            try:
                future = pool.submit(execute_job, batch.specs[index], attempt, self.fault_plan)
            except (BrokenProcessPool, RuntimeError):
                # The pool died between loop iterations; requeue and respawn.
                batch.pending.appendleft(entry)
                if futures:
                    pool_broken = True
                else:
                    pool = self._respawn(batch, pool, workers, max_restarts)
                break
            deadline = time.monotonic() + self.timeout_s if self.timeout_s is not None else None
            futures[future] = (index, attempt, timeouts, deadline)
        return pool, pool_broken

    def _charge_pool_death(self, batch: _Batch, index: int, attempt: int, timeouts: int) -> None:
        if attempt < self.max_attempts:
            self._retry(batch, index, attempt, timeouts)
            return
        raise JobError(
            "a worker process died without reporting a result (killed, "
            f"out-of-memory, or a hard crash); job {batch.specs[index].key!r} exhausted its "
            f"{attempt} attempt(s); re-run with workers=1 to localize the failure",
            completed=batch.completed(),
        )

    def _kill_expired(self, batch, pool, futures, workers, max_restarts):
        now = time.monotonic()
        expired = [
            future
            for future, (_i, _a, _t, deadline) in futures.items()
            if deadline is not None and now > deadline and not future.done()
        ]
        if not expired:
            return pool
        for future in expired:
            index, attempt, timeouts, deadline = futures.pop(future)
            killed = JobResult(
                key=batch.specs[index].key, ok=False, wall_s=self.timeout_s + now - deadline
            )
            self._settle(batch, index, killed, attempt, timeouts, killed=True)
        # The pool API cannot kill one task, so terminate every worker
        # and resubmit the innocent in-flight jobs uncharged, ahead of
        # the queue and in their submission order.
        innocent = [future for future in futures if not future.done()]
        batch.pending.extendleft(reversed([futures.pop(future)[:3] for future in innocent]))
        self._terminate_pool(pool)
        return self._respawn(batch, pool, workers, max_restarts)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()

    def _respawn(self, batch, pool, workers, max_restarts) -> ProcessPoolExecutor:
        # Join the dead pool fully — a half-closed executor leaks file
        # descriptors its atexit hook later trips over.
        pool.shutdown(wait=True, cancel_futures=True)
        if self.last_stats.pool_restarts >= max_restarts:
            raise JobError(
                f"the process pool died {self.last_stats.pool_restarts} times; giving up "
                "(persistent worker crash or resource exhaustion)",
                completed=batch.completed(),
            )
        self.last_stats.pool_restarts += 1
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_mark_worker_process
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def raise_on_failure(results: Sequence[JobResult]) -> None:
        """Raise :class:`JobError` describing every failed job, if any.

        The exception's ``completed`` attribute carries the successful
        results so callers can salvage the finished shards.
        """
        failed = [result for result in results if not result.ok]
        if not failed:
            return
        first = failed[0]
        detail = f"\n--- worker traceback ({first.key}) ---\n{first.traceback}"
        keys = ", ".join(result.key for result in failed)
        raise JobError(
            f"{len(failed)} of {len(results)} jobs failed ({keys}); "
            f"first failure: {first.error}{detail}",
            completed=[result for result in results if result.ok],
        )


def summarize_run(runner: JobRunner, results: Sequence[JobResult], wall_s: float) -> dict:
    """Sharding summary block the benchmark documents record.

    ``serial_estimate_s`` is the sum of per-job wall times — what the
    batch would have cost on one worker — so ``parallel_speedup`` is a
    measured (not modeled) wall-clock improvement of this very run.
    ``cpu_speedup`` divides the summed per-job *CPU* time by the wall
    time instead; on a machine with fewer cores than workers the jobs
    time-share and inflate each other's wall clocks, so the CPU variant
    is the honest lower bound there (the two agree when cores >=
    workers).  The fault-tolerance counters (retries, timeout kills,
    pool restarts, resumed jobs) live here precisely because this block
    is stripped wholesale by ``canonical_document``.
    """
    serial_estimate = sum(result.wall_s for result in results)
    cpu_total = sum(result.cpu_s for result in results)
    return {
        "backend": runner.backend,
        "workers": runner.workers,
        "jobs": len(results),
        "wall_s": wall_s,
        "serial_estimate_s": serial_estimate,
        "cpu_total_s": cpu_total,
        "max_job_wall_s": max((result.wall_s for result in results), default=0.0),
        "parallel_speedup": serial_estimate / wall_s if wall_s > 0.0 else float("inf"),
        "cpu_speedup": cpu_total / wall_s if wall_s > 0.0 else float("inf"),
        "attempts": sum(result.attempts for result in results),
        **runner.last_stats.to_dict(),
    }
