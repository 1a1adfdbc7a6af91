"""Fault tolerance: retries, timeouts, crash recovery, checkpoint/resume.

The contract under test is *determinism under faults*: a run that hits
injected exceptions, hangs, worker kills or a mid-run SIGKILL must — via
retries, pool respawns and checkpoint resume — converge to the exact
document a fault-free serial run produces.  Faults are injected before
the job function executes, so a surviving attempt returns the
bit-identical clean value.
"""

from __future__ import annotations

import json

import pytest

from conftest import reference_noise
from repro.benchmarks.bench_optimize import DEFAULTS, run_optimize_benchmarks
from repro.benchmarks.compare_bench import strip_execution_counters
from repro.config import AnalysisConfig, OptimizeConfig
from repro.errors import (
    CheckpointError,
    DFGError,
    FaultInjectionError,
    JobError,
    NoiseModelError,
)
from repro.jobs import (
    FaultPlan,
    JobCheckpoint,
    JobRunner,
    JobSpec,
    NO_RETRY,
    RetryPolicy,
    SearchCheckpoint,
    canonical_document,
    is_volatile_key,
)


# --------------------------------------------------------------------- #
# module-level job bodies (the process backend pickles them)
# --------------------------------------------------------------------- #
def _triple(value):
    return value * 3


def _boom(value):
    raise ValueError(f"bad value {value}")


def _specs(n=6):
    return [JobSpec(key=f"job/{i}", fn=_triple, args=(i,)) for i in range(n)]


# --------------------------------------------------------------------- #
# policies and plans
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_allows_counts_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(1) and policy.allows(2)
        assert not policy.allows(3)
        assert not NO_RETRY.allows(1)

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_factor=2.0, jitter=0.25)
        first = policy.delay_s("job/a", 1, seed=7)
        assert first == policy.delay_s("job/a", 1, seed=7)
        # jitter stays within +-25% of the exponential schedule
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4)):
            delay = policy.delay_s("job/a", attempt, seed=7)
            assert base * 0.75 <= delay <= base * 1.25
        # different jobs and attempts draw different jitter
        assert policy.delay_s("job/a", 1, seed=7) != policy.delay_s("job/b", 1, seed=7)


class TestFaultPlan:
    def test_draws_are_deterministic(self):
        plan = FaultPlan(rate=0.5, seed=3)
        draws = [plan.fault_for(f"job/{i}", 1) for i in range(50)]
        assert draws == [plan.fault_for(f"job/{i}", 1) for i in range(50)]
        assert any(draws) and not all(draws)

    def test_rate_bounds(self):
        none_plan = FaultPlan(rate=0.0, seed=0)
        all_plan = FaultPlan(rate=1.0, seed=0)
        assert not any(none_plan.fault_for(f"job/{i}", 1) for i in range(20))
        assert all(all_plan.fault_for(f"job/{i}", 1) for i in range(20))

    def test_max_faults_per_job_frees_retries(self):
        plan = FaultPlan(rate=1.0, seed=0, max_faults_per_job=1)
        assert plan.fault_for("job/a", 1) is not None
        assert plan.fault_for("job/a", 2) is None

    def test_inject_raises(self):
        plan = FaultPlan(rate=1.0, seed=0, kinds=("exception",))
        with pytest.raises(FaultInjectionError):
            plan.inject("job/a", 1)


# --------------------------------------------------------------------- #
# hardened runner
# --------------------------------------------------------------------- #
# Both executors share one scheduler, so the retry and resume tests below
# hold the in-process executor (workers=1) and the pool (workers=2) to the
# same bookkeeping.
WORKER_COUNTS = (1, 2)


class TestRetries:
    def test_faulted_serial_run_matches_clean(self):
        clean = JobRunner(workers=1).run(_specs(), check=True)
        for workers in WORKER_COUNTS:
            faulted = JobRunner(
                workers=workers,
                retry=RetryPolicy(max_attempts=3, backoff_s=0.0, jitter=0.0),
                fault_plan=FaultPlan(rate=1.0, seed=0, kinds=("exception",)),
            )
            results = faulted.run(_specs(), check=True)
            assert [r.value for r in results] == [r.value for r in clean], workers
            assert all(r.attempts == 2 for r in results), workers
            assert faulted.last_stats.retries == len(results), workers

    def test_faulted_process_run_matches_clean(self):
        clean = JobRunner(workers=1).run(_specs(), check=True)
        faulted = JobRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0, jitter=0.0),
            fault_plan=FaultPlan(rate=0.6, seed=1, kinds=("exception",)),
        )
        results = faulted.run(_specs(), check=True)
        assert [r.value for r in results] == [r.value for r in clean]

    def test_exhausted_retries_keep_the_failure(self):
        # Two jobs, so workers=2 runs them on the pool.
        specs = [JobSpec(key="bad", fn=_boom, args=(1,)), JobSpec(key="ok", fn=_triple, args=(1,))]
        for workers in WORKER_COUNTS:
            runner = JobRunner(
                workers=workers,
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0, jitter=0.0),
            )
            results = runner.run(specs)
            assert not results[0].ok, workers
            assert results[0].attempts == 2, workers
            assert results[1].ok and results[1].attempts == 1, workers
            assert runner.last_stats.retries == 1, workers

    def test_job_error_carries_completed_results(self):
        specs = [
            JobSpec(key="ok/1", fn=_triple, args=(1,)),
            JobSpec(key="bad", fn=_boom, args=(2,)),
            JobSpec(key="ok/2", fn=_triple, args=(3,)),
        ]
        for workers in WORKER_COUNTS:
            with pytest.raises(JobError) as excinfo:
                JobRunner(workers=workers).run(specs, check=True)
            completed = excinfo.value.completed
            assert {r.key for r in completed} == {"ok/1", "ok/2"}, workers
            assert all(r.ok for r in completed), workers


def _hang_job(value):  # pragma: no cover - killed by the timeout
    import time

    time.sleep(60.0)
    return value


class TestTimeouts:
    def test_timed_out_job_is_killed_retried_and_counted(self):
        """A hang on attempt 1 is killed at the deadline; attempt 2 runs clean."""
        runner = JobRunner(
            workers=2,
            timeout_s=0.5,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0, jitter=0.0),
            fault_plan=FaultPlan(rate=1.0, seed=0, kinds=("hang",), hang_s=30.0),
        )
        results = runner.run(_specs(2), check=True)
        assert [r.value for r in results] == [0, 3]
        assert all(r.attempts == 2 for r in results)
        assert all(r.timeouts == 1 for r in results)
        assert runner.last_stats.timeouts == 2
        assert runner.last_stats.pool_restarts >= 1

    def test_timeout_without_retry_budget_fails_the_job(self):
        runner = JobRunner(workers=2, timeout_s=0.3)
        results = runner.run([JobSpec(key="hang", fn=_hang_job, args=(1,))])
        assert not results[0].ok
        assert results[0].timeouts == 1
        assert "timed out" in results[0].error.lower() or "timeout" in results[0].error.lower()


class TestWorkerCrashes:
    def test_killed_workers_respawn_and_finish(self):
        clean = JobRunner(workers=1).run(_specs(4), check=True)
        runner = JobRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0, jitter=0.0),
            fault_plan=FaultPlan(rate=1.0, seed=0, kinds=("kill",)),
        )
        results = runner.run(_specs(4), check=True)
        assert [r.value for r in results] == [r.value for r in clean]
        assert runner.last_stats.pool_restarts >= 1

    def test_pool_death_without_retry_raises_job_error(self):
        runner = JobRunner(
            workers=2,
            fault_plan=FaultPlan(rate=1.0, seed=0, kinds=("kill",)),
        )
        with pytest.raises(JobError, match="worker process died"):
            runner.run(_specs(2), check=True)


# --------------------------------------------------------------------- #
# checkpoint / resume
# --------------------------------------------------------------------- #
class TestJobCheckpoint:
    def test_full_resume_skips_every_job(self, tmp_path):
        meta = {"suite": "unit"}
        for workers in WORKER_COUNTS:
            path = tmp_path / f"run-{workers}.jsonl"
            first = JobRunner(workers=workers).run(
                _specs(), check=True, checkpoint=JobCheckpoint(path, meta=meta)
            )
            resumed_runner = JobRunner(workers=workers)
            resumed = resumed_runner.run(
                _specs(), check=True, checkpoint=JobCheckpoint(path, meta=meta, resume=True)
            )
            assert [r.value for r in resumed] == [r.value for r in first], workers
            assert all(r.resumed for r in resumed), workers
            assert resumed_runner.last_stats.resumed_jobs == len(resumed), workers

    def test_partial_resume_recomputes_only_missing(self, tmp_path):
        """Acceptance proof: after losing the tail of the log (the on-disk
        state a mid-run SIGKILL leaves), --resume recomputes exactly the
        missing jobs and merges to the identical result list."""
        meta = {"suite": "unit"}
        for workers in WORKER_COUNTS:
            path = tmp_path / f"run-{workers}.jsonl"
            first = JobRunner(workers=workers).run(
                _specs(), check=True, checkpoint=JobCheckpoint(path, meta=meta)
            )
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:4]))  # header + 3 completed records

            resumed_runner = JobRunner(workers=workers)
            resumed = resumed_runner.run(
                _specs(), check=True, checkpoint=JobCheckpoint(path, meta=meta, resume=True)
            )
            assert [r.value for r in resumed] == [r.value for r in first], workers
            assert sum(1 for r in resumed if r.resumed) == 3, workers
            assert sum(1 for r in resumed if not r.resumed) == 3, workers
            assert resumed_runner.last_stats.resumed_jobs == 3, workers

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        meta = {"suite": "unit"}
        JobRunner(workers=1).run(_specs(3), check=True, checkpoint=JobCheckpoint(path, meta=meta))
        path.write_text(path.read_text() + '{"key": "job/torn", "ok": true, "val')
        resumed = JobRunner(workers=1).run(
            _specs(3), check=True, checkpoint=JobCheckpoint(path, meta=meta, resume=True)
        )
        assert all(r.resumed for r in resumed)

    def test_fingerprint_mismatch_refuses_to_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        JobRunner(workers=1).run(
            _specs(2), check=True, checkpoint=JobCheckpoint(path, meta={"seed": 0})
        )
        with pytest.raises(CheckpointError, match="different run"):
            JobRunner(workers=1).run(
                _specs(2),
                check=True,
                checkpoint=JobCheckpoint(path, meta={"seed": 1}, resume=True),
            )

    def test_failed_records_are_recomputed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        meta = {"suite": "unit"}
        JobRunner(workers=1).run(
            [JobSpec(key="bad", fn=_boom, args=(1,))],
            checkpoint=JobCheckpoint(path, meta=meta),
        )
        resumed = JobRunner(workers=1).run(
            [JobSpec(key="bad", fn=_triple, args=(1,))],
            checkpoint=JobCheckpoint(path, meta=meta, resume=True),
        )
        assert resumed[0].ok and not resumed[0].resumed


class TestSearchCheckpoint:
    def test_save_load_clear_roundtrip(self, tmp_path):
        path = tmp_path / "search.json"
        checkpoint = SearchCheckpoint(path, meta={"strategy": "greedy"})
        assert checkpoint.load() is None
        checkpoint.save({"step": 3, "best": None})
        assert checkpoint.load() == {"step": 3, "best": None}
        checkpoint.clear()
        assert checkpoint.load() is None
        checkpoint.clear()  # idempotent

    def test_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "search.json"
        SearchCheckpoint(path, meta={"strategy": "greedy"}).save({"step": 1})
        with pytest.raises(CheckpointError, match="different run"):
            SearchCheckpoint(path, meta={"strategy": "uniform"}).load()


# --------------------------------------------------------------------- #
# strategy and pareto resume
# --------------------------------------------------------------------- #
def _make_problem(snr_floor_db=55.0):
    from repro.benchmarks.circuits import get_circuit
    from repro.optimize import OptimizationProblem

    return OptimizationProblem.from_circuit(get_circuit("fir4"), snr_floor_db)


class _DieAfterSaves:
    """Wrap a SearchCheckpoint: interrupt the search on the Nth save."""

    def __init__(self, checkpoint, die_on):
        self._checkpoint = checkpoint
        self._die_on = die_on
        self._saves = 0

    def __getattr__(self, name):
        return getattr(self._checkpoint, name)

    def save(self, state):
        self._checkpoint.save(state)
        self._saves += 1
        if self._saves == self._die_on:
            raise KeyboardInterrupt


@pytest.mark.parametrize(
    "strategy,options",
    [("greedy", {})],
)
def test_interrupted_search_resumes_to_identical_result(tmp_path, strategy, options):
    from repro.optimize.strategies import get_optimizer

    reference = get_optimizer(strategy, **options).optimize(_make_problem())

    path = tmp_path / "search.json"
    dying = _DieAfterSaves(SearchCheckpoint(path, meta={"s": strategy}), die_on=2)
    with pytest.raises(KeyboardInterrupt):
        get_optimizer(strategy, **options).optimize(_make_problem(), checkpoint=dying)
    assert path.exists()

    resumed = get_optimizer(strategy, **options).optimize(
        _make_problem(), checkpoint=SearchCheckpoint(path, meta={"s": strategy})
    )
    assert resumed.cost == reference.cost
    assert resumed.snr_db == reference.snr_db
    assert resumed.assignment.to_doc() == reference.assignment.to_doc()
    assert not path.exists()  # cleared after clean completion


def test_interrupted_pareto_resumes_to_identical_designs(tmp_path):
    from repro.optimize.pareto import pareto_front

    floors = [45.0, 55.0, 65.0]
    reference = pareto_front(_make_problem(65.0), floors)

    path = tmp_path / "pareto.json"
    dying = _DieAfterSaves(SearchCheckpoint(path, meta={"suite": "pareto"}), die_on=2)
    with pytest.raises(KeyboardInterrupt):
        pareto_front(_make_problem(65.0), floors, checkpoint=dying)

    resumed = pareto_front(
        _make_problem(65.0),
        floors,
        checkpoint=SearchCheckpoint(path, meta={"suite": "pareto"}),
    )
    volatile = {"runtime_s", "analyzer_calls"}
    for ref_point, res_point in zip(reference.points, resumed.points):
        ref_doc, res_doc = ref_point.to_dict(), res_point.to_dict()
        assert {k for k in ref_doc if ref_doc[k] != res_doc[k]} <= volatile
    for ref_result, res_result in zip(reference.results, resumed.results):
        assert ref_result.assignment.to_doc() == res_result.assignment.to_doc()
    assert not path.exists()


def test_interrupted_pareto_leaves_the_caller_warm(tmp_path):
    from repro.optimize.pareto import pareto_front

    problem = _make_problem(65.0)
    dying = _DieAfterSaves(SearchCheckpoint(tmp_path / "p.json", meta={"suite": "pareto"}), 1)
    with pytest.raises(KeyboardInterrupt):
        pareto_front(problem, [45.0, 55.0, 65.0], checkpoint=dying)
    assert problem.analyzer_calls > 0  # the sweep's views share its state


def test_resumed_pareto_keeps_floors_closer_than_six_digits(tmp_path):
    from repro.optimize.pareto import pareto_front

    floors = [60.0, 60.0000001]
    reference = pareto_front(_make_problem(60.0), floors)
    path = tmp_path / "pareto.json"
    dying = _DieAfterSaves(SearchCheckpoint(path, meta={"suite": "pareto"}), die_on=1)
    with pytest.raises(KeyboardInterrupt):
        pareto_front(_make_problem(60.0), floors, checkpoint=dying)

    resumed = pareto_front(
        _make_problem(60.0), floors, checkpoint=SearchCheckpoint(path, meta={"suite": "pareto"})
    )
    assert [p.snr_floor_db for p in resumed.points] == floors
    volatile = {"runtime_s", "analyzer_calls"}
    for ref_point, res_point in zip(reference.points, resumed.points):
        ref_doc, res_doc = ref_point.to_dict(), res_point.to_dict()
        assert {k for k in ref_doc if ref_doc[k] != res_doc[k]} <= volatile


# --------------------------------------------------------------------- #
# engine failures: candidate pricing has no fallback
# --------------------------------------------------------------------- #
class TestEngineDegradation:
    @pytest.mark.parametrize("engine_fallback", [True, False], ids=["fallback", "no-fallback"])
    def test_incremental_failure_raises(self, monkeypatch, engine_fallback):
        """The incremental engine is the one evaluator: its failures propagate.

        ``engine_fallback`` is ignored, so either value raises and records
        nothing; once the fault is gone the same problem evaluates exactly
        again.
        """
        from repro.analysis.incremental import IncrementalAnalyzer
        from repro.benchmarks.circuits import get_circuit
        from repro.optimize import OptimizationProblem

        problem = OptimizationProblem.from_circuit(
            get_circuit("fir4"), 55.0, config=OptimizeConfig(engine_fallback=engine_fallback)
        )

        def _broken(self, *args, **kwargs):
            raise DFGError("synthetic incremental-engine failure")

        with monkeypatch.context() as patch:
            patch.setattr(IncrementalAnalyzer, "noise_power", _broken)
            with pytest.raises(DFGError, match="synthetic incremental-engine failure"):
                problem.evaluate_uniform(12)
        assert problem.degradations == []
        design = problem.uniform(12)
        assert problem.evaluate_uniform(12).noise_power == reference_noise(problem, design)

    def test_batched_compile_failure_raises_and_evaluation_goes_on(self, monkeypatch):
        import repro.analysis.batched as batched_module
        from repro.benchmarks.circuits import get_circuit
        from repro.optimize import OptimizationProblem

        problem = OptimizationProblem.from_circuit(
            get_circuit("fir4"), 55.0, config=OptimizeConfig(engine="batched")
        )

        def _broken_init(self, *args, **kwargs):
            raise DFGError("synthetic batched-compile failure")

        with monkeypatch.context() as patch:
            patch.setattr(batched_module.BatchedAnalyzer, "__init__", _broken_init)
            with pytest.raises(DFGError, match="synthetic batched-compile failure"):
                problem.batched_engine()
        assert problem.degradations == [] and problem._state.batched is None
        # the problem still evaluates designs exactly, and builds the engine once fixed
        design = problem.uniform(12)
        assert problem.evaluate_uniform(12).noise_power == reference_noise(problem, design)
        assert problem.batched_engine() is problem.batched_engine()

    @staticmethod
    def _break_batched(monkeypatch, hook: str) -> None:
        import repro.analysis.batched as batched_module

        def _broken(self, *args, **kwargs):
            raise NoiseModelError(f"synthetic batched {hook} failure")

        monkeypatch.setattr(batched_module.BatchedAnalyzer, hook, _broken)

    @pytest.mark.parametrize("hook", ["__init__", "price_moves"])
    def test_batched_failure_without_fallback_aborts_greedy(self, monkeypatch, hook):
        """A batched engine that fails to build or price ends the search: nothing falls back."""
        from repro.benchmarks.circuits import get_circuit
        from repro.optimize import OptimizationProblem, get_optimizer

        problem = OptimizationProblem.from_circuit(
            get_circuit("fir4"), 55.0, config=OptimizeConfig(method="ia", engine="batched")
        )
        self._break_batched(monkeypatch, hook)
        with pytest.raises(NoiseModelError, match="synthetic batched"):
            get_optimizer("greedy").optimize(problem)
        assert problem.degradations == []

    def test_degradation_events_serialize(self):
        from repro.analysis.degradation import DegradationEvent

        event = DegradationEvent(
            stage="montecarlo-sharded",
            from_engine="sharded[2]",
            to_engine="sharded[1]",
            reason="JobError: synthetic",
        )
        assert json.loads(json.dumps(event.to_dict())) == {
            "stage": "montecarlo-sharded",
            "from_engine": "sharded[2]",
            "to_engine": "sharded[1]",
            "reason": "JobError: synthetic",
        }


class TestPipelineMonteCarloFallback:
    """A dead worker pool reruns the shards serially, for the pipeline and the search."""

    @staticmethod
    def _break_pool(monkeypatch):
        import repro.analysis.montecarlo as montecarlo

        real = montecarlo.monte_carlo_error_sharded

        def _flaky(*args, **kwargs):
            if kwargs.get("workers") != 1:
                raise JobError("worker process died (synthetic)")
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "monte_carlo_error_sharded", _flaky)

    def test_sharded_failure_falls_back_to_serial(self, monkeypatch):
        from repro.analysis.pipeline import NoiseAnalysisPipeline
        from repro.benchmarks.circuits import get_circuit

        circuit = get_circuit("quadratic")
        config = AnalysisConfig(mc_samples=2_000, horizon=4, mc_workers=2)
        clean = NoiseAnalysisPipeline(config).analyze(circuit, output=circuit.output)
        self._break_pool(monkeypatch)
        pipeline = NoiseAnalysisPipeline(config)
        report = pipeline.analyze(circuit, output=circuit.output)
        assert [event.stage for event in pipeline.degradation_log] == ["montecarlo-sharded"]
        assert pipeline.degradation_log[0].from_engine == "sharded[2]"
        # the serial rerun reproduces the sharded numbers
        assert report.results["montecarlo"].noise_power == clean.results["montecarlo"].noise_power

    def test_problem_sharded_failure_falls_back_to_serial(self, monkeypatch):
        from repro.benchmarks.circuits import get_circuit
        from repro.optimize import OptimizationProblem

        circuit = get_circuit("quadratic")
        problem = OptimizationProblem.from_circuit(
            circuit, 40.0, config=OptimizeConfig(method="ia", horizon=4, mc_workers=2)
        )
        design = problem.uniform(12)
        clean = problem.monte_carlo_snr(design, samples=2_000, seed=3)
        assert problem.degradations == []
        self._break_pool(monkeypatch)
        assert problem.monte_carlo_snr(design, samples=2_000, seed=3) == clean
        assert [event.stage for event in problem.degradations] == ["montecarlo-sharded"]
        # a rescoped view logs into the same search state
        assert problem.rescoped(35.0).degradations is problem.degradations


# --------------------------------------------------------------------- #
# bench-level determinism under faults (acceptance proof, unit-sized)
# --------------------------------------------------------------------- #
class TestBenchDeterminismUnderFaults:
    def test_faulted_bench_optimize_matches_clean(self):
        kwargs = dict(
            config=DEFAULTS.replace(bins=8, horizon=4),
            circuits=["quadratic"],
            methods=("aa",),
            mc_samples=2_000,
        )
        clean = run_optimize_benchmarks(workers=1, **kwargs)
        faulted = run_optimize_benchmarks(
            workers=2,
            runner=JobRunner(
                workers=2,
                retry=RetryPolicy(max_attempts=3, backoff_s=0.0, jitter=0.0),
                fault_plan=FaultPlan(rate=1.0, seed=0, kinds=("exception",)),
            ),
            **kwargs,
        )
        assert canonical_document(clean) == canonical_document(faulted)
        rows = [
            row
            for circuit in faulted["circuits"].values()
            for method in circuit["methods"].values()
            for row in method["strategies"].values()
        ]
        assert all(row["job_attempts"] == 2 for row in rows)
        assert faulted["fault_injection"]["rate"] == 1.0

    def test_resumed_bench_optimize_matches_clean(self, tmp_path):
        kwargs = dict(
            config=DEFAULTS.replace(bins=8, horizon=4),
            circuits=["quadratic"],
            methods=("aa",),
            mc_samples=2_000,
        )
        path = tmp_path / "bench.jsonl"
        meta = {"suite": "unit-bench"}
        clean = run_optimize_benchmarks(
            workers=1, checkpoint=JobCheckpoint(path, meta=meta), **kwargs
        )
        # drop the last record: the state a mid-run kill leaves behind
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        resumed = run_optimize_benchmarks(
            workers=1, checkpoint=JobCheckpoint(path, meta=meta, resume=True), **kwargs
        )
        assert canonical_document(clean) == canonical_document(resumed)
        rows = [
            row
            for circuit in resumed["circuits"].values()
            for method in circuit["methods"].values()
            for row in method["strategies"].values()
        ] + [
            entry[part]
            for entry in resumed["probabilistic"]["circuits"].values()
            for part in ("worstcase", "probabilistic", "oracle")
        ]
        assert sum(1 for row in rows if row.get("job_resumed")) == len(rows) - 1


# --------------------------------------------------------------------- #
# document hygiene
# --------------------------------------------------------------------- #
class TestVolatileCounters:
    def test_execution_counters_are_volatile(self):
        for key in ("job_attempts", "job_timeouts", "job_resumed", "fault_injection"):
            assert is_volatile_key(key), key
        # the deterministic margin-escalation count must NOT be stripped
        assert not is_volatile_key("attempts")

    def test_compare_bench_strips_execution_counters(self):
        document = {
            "circuits": {
                "quadratic": {
                    "total_runtime_s": 1.0,
                    "job_attempts": 3,
                    "job_timeouts": 1,
                    "results": {"aa": {"lower": 0.0, "upper": 1.0, "job_resumed": True}},
                }
            },
            "fault_injection": {"rate": 0.5},
        }
        stripped = strip_execution_counters(document)
        entry = stripped["circuits"]["quadratic"]
        assert "job_attempts" not in entry and "job_timeouts" not in entry
        assert "job_resumed" not in entry["results"]["aa"]
        assert "fault_injection" not in stripped
        assert entry["total_runtime_s"] == 1.0  # the runtime gate still sees this


# --------------------------------------------------------------------- #
# CLI diagnostics
# --------------------------------------------------------------------- #
class TestCliDiagnostics:
    def test_unknown_circuit_exits_2_with_one_line(self, capsys):
        from repro.cli import main

        assert main(["optimize", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "nosuch" in err

    def test_resume_without_checkpoint_exits_2(self, capsys):
        from repro.cli import main

        assert main(["pareto", "fir4", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_unknown_cost_table_exits_2(self, capsys):
        from repro.cli import main

        assert main(["optimize", "fir4", "--cost-table", "nosuch"]) == 2
        assert "cost table" in capsys.readouterr().err

    def test_zero_bins_exits_2(self, capsys):
        # A config field the config object rejects: horizon 0.
        from repro.cli import main

        assert main(["analyze", "fir4", "--horizon", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "horizon must be >= 1" in err
