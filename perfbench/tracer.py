"""Per-layer spans and counters, measured from outside the library.

:class:`Recorder` replaces chosen functions of the ``repro`` layers with
timing wrappers for the duration of one traced operation and restores
the originals afterwards; no library file is changed.  Each wrapper
records calls, inclusive seconds and self seconds (inclusive minus the
time of wrapped calls nested inside it), and optional hooks read the
layer's own counters before and after the call.

Wrappers only see the calling process.  Spans inside the worker
processes of the ``decomposed`` strategy never reach the parent, so
``jobs.job_wall_s`` / ``jobs.job_cpu_s``, summed from the returned
``JobResult`` records, stand in for that worker-side work.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List


class Recorder:
    """Spans (calls, inclusive s, self s) and counters by metric name."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._undo: List[Callable[[], None]] = []

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Wrap ``owner.attr`` under span ``name`` until :meth:`restore`.

        ``before(args, kwargs)`` returns a token handed to
        ``after(token, args, kwargs, result, seconds)`` once the call
        returns, which updates :attr:`counters`.
        """
        static = inspect.getattr_static(owner, attr)
        fn = static.__func__ if isinstance(static, staticmethod) else getattr(owner, attr)
        stack, spans, counters = self._stack, self.spans, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                record = spans[name]
                record[0] += 1
                record[1] += seconds
                record[2] += seconds - frame[0]
            if after is not None:
                after(token, args, kwargs, result, seconds)
            return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(static, staticmethod) else wrapper)
        self._undo.append(lambda: setattr(owner, attr, static))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            self._undo.pop()()

    def add(self, name: str, amount: float) -> None:
        self.counters[name] += amount


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries every workload crosses."""
    import workloads
    from repro.analysis import incremental, montecarlo, probabilistic
    from repro.analysis.batched import BatchedAnalyzer
    from repro.dfg.graph import DFG
    from repro.jobs.runner import JobRunner
    from repro.noisemodel.analyzer import DatapathNoiseAnalyzer
    from repro.optimize import decomposed, problem
    from repro.optimize.cost import HardwareCostModel

    add = recorder.add
    p = recorder.patch
    Problem = problem.OptimizationProblem

    p(DFG, "successors", "dfg.successors")
    p(HardwareCostModel, "reprice", "cost.reprice")
    p(HardwareCostModel, "affected_by", "cost.affected_by")
    p(HardwareCostModel, "price", "cost.price")
    # Circuit construction (the trace frontend and the generators).
    p(workloads, "build_circuit", "dfg.trace")
    p(problem, "infer_ranges", "dfg.infer_ranges")
    p(decomposed, "partition_graph", "dfg.partition",
      after=lambda _t, _a, _k, result, _s: add("decomposed.partitions", result.parts))
    p(decomposed, "extract_partition", "dfg.partition")
    p(problem, "transfer_gains", "gains.transfer_gains")

    def evaluate_before(args, _kwargs):
        return args[0].analyzer_calls, args[0].evaluate_cache_hits

    def evaluate_after(token, args, _kwargs, _result, _s):
        add("problem.analyzer_calls", args[0].analyzer_calls - token[0])
        add("problem.cache_hits", args[0].evaluate_cache_hits - token[1])

    p(Problem, "evaluate", "problem.evaluate", evaluate_before, evaluate_after)
    p(Problem, "predicted_noise_increase", "problem.predicted_noise_increase")
    p(Problem, "rescoped", "pareto.rescoped")
    # Both the fresh analyze() path and the fresh confidence path run one
    # full _propagate(); the incremental and batched engines never do.
    p(DatapathNoiseAnalyzer, "_propagate", "analyzer.analyze")

    def recomputed_before(args, _kwargs):
        return args[0].stats.nodes_recomputed

    def recomputed_after(token, args, _kwargs, _result, _s):
        add("incremental.nodes_recomputed", args[0].stats.nodes_recomputed - token)

    Incremental = incremental.IncrementalAnalyzer
    p(Incremental, "noise_power", "incremental.noise_power", recomputed_before, recomputed_after)
    p(Incremental, "commit", "incremental.commit", recomputed_before, recomputed_after)
    p(probabilistic, "affine_error_pdf", "pna.affine_error_pdf")
    p(BatchedAnalyzer, "__init__", "batched.compile")

    def moves_after(token, args, kwargs, _result, _s):
        moves = args[2] if len(args) > 2 else kwargs["moves"]
        add("batched.lanes", len(moves))
        add("batched.fallback_probes", args[0].fallback_probes - token)

    p(BatchedAnalyzer, "price_moves", "batched.price_moves",
      lambda args, _k: args[0].fallback_probes, moves_after)

    def mc_after(_t, _args, kwargs, _result, _s):
        add("mc.samples", kwargs.get("samples", 0))

    p(montecarlo, "monte_carlo_error", "mc", after=mc_after)
    p(montecarlo, "monte_carlo_error_sharded", "mc", after=mc_after)

    def jobs_after(_t, args, _kwargs, results, seconds):
        add("jobs.jobs", len(results))
        add("jobs.attempts", sum(r.attempts for r in results))
        add("jobs.retries", sum(r.attempts - 1 for r in results))
        add("jobs.job_wall_s", sum(r.wall_s for r in results))
        add("jobs.job_cpu_s", sum(r.cpu_s for r in results))
        add("jobs.capacity_s", seconds * args[0].workers)

    p(JobRunner, "run", "jobs.run", after=jobs_after)
