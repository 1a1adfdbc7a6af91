"""The job-runner subsystem: determinism, error capture, sharded merges."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.benchmarks import bench_optimize
from repro.benchmarks.bench_analysis import run_benchmarks
from repro.benchmarks.bench_optimize import run_optimize_benchmarks
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.config import AnalysisConfig, OptimizeConfig
from repro.errors import JobError
from repro.jobs import (
    JobRunner,
    JobSpec,
    canonical_document,
    derive_seed,
    execute_job,
    is_volatile_key,
    summarize_run,
)
from repro.noisemodel.assignment import WordLengthAssignment


# --------------------------------------------------------------------- #
# module-level job bodies (the process backend pickles them)
# --------------------------------------------------------------------- #
def _square(value):
    return value * value


def _with_seed(seed):
    return seed


def _boom(value):
    raise ValueError(f"bad value {value}")


def _hard_exit():
    os._exit(3)  # dies without reporting: simulates a worker crash


def _sleepless(value):
    return sum(range(value))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(0, "a", "b") == derive_seed(0, "a", "b")
        assert derive_seed(0, "a", "b") != derive_seed(1, "a", "b")
        assert derive_seed(0, "a", "b") != derive_seed(0, "a", "c")
        # part boundaries matter: ("ab","c") is not ("a","bc")
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_range_and_stability(self):
        seed = derive_seed(0, "analysis", "fir4")
        assert 0 <= seed < 2**32
        # Pinned: the derivation is part of the BENCH reproducibility
        # contract — changing it silently would re-seed every artifact.
        assert seed == derive_seed(0, "analysis", "fir4")
        assert derive_seed(7) != 7  # hashed, not passed through


class TestJobRunner:
    def specs(self, count=5):
        return [JobSpec(key=f"sq/{i}", fn=_square, args=(i,), seed=i) for i in range(count)]

    def test_serial_executes_in_order(self):
        results = JobRunner(workers=1).run(self.specs())
        assert [r.key for r in results] == [f"sq/{i}" for i in range(5)]
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert all(r.ok for r in results)
        assert all(r.wall_s >= 0.0 and r.cpu_s >= 0.0 for r in results)

    def test_process_backend_matches_serial(self):
        serial = JobRunner(workers=1).run(self.specs())
        parallel = JobRunner(workers=2).run(self.specs())
        assert [r.value for r in parallel] == [r.value for r in serial]
        assert [r.key for r in parallel] == [r.key for r in serial]

    def test_seed_travels_with_the_job(self):
        specs = [
            JobSpec(key=f"s/{i}", fn=_with_seed, args=(derive_seed(0, i),), seed=derive_seed(0, i))
            for i in range(4)
        ]
        for result in JobRunner(workers=2).run(specs):
            assert result.value == result.seed

    def test_exception_is_captured_not_raised(self):
        specs = [JobSpec(key="ok", fn=_square, args=(2,)), JobSpec(key="bad", fn=_boom, args=(9,))]
        results = JobRunner(workers=1).run(specs)
        assert results[0].ok and results[0].value == 4
        bad = results[1]
        assert not bad.ok and bad.value is None
        assert "ValueError: bad value 9" in bad.error
        assert "Traceback" in bad.traceback and "_boom" in bad.traceback

    def test_check_raises_with_worker_traceback(self):
        specs = [JobSpec(key="bad", fn=_boom, args=(1,)), JobSpec(key="ok", fn=_square, args=(1,))]
        with pytest.raises(JobError, match="ValueError: bad value 1") as excinfo:
            JobRunner(workers=1).run(specs, check=True)
        assert "worker traceback" in str(excinfo.value)

    def test_exception_surfaces_across_processes(self):
        results = JobRunner(workers=2).run(
            [JobSpec(key=f"b/{i}", fn=_boom, args=(i,)) for i in range(3)]
        )
        assert [r.ok for r in results] == [False, False, False]
        assert all("ValueError" in r.error for r in results)

    def test_hard_worker_crash_raises_job_error(self):
        specs = [JobSpec(key=f"die/{i}", fn=_hard_exit) for i in range(2)]
        with pytest.raises(JobError, match="worker process died"):
            JobRunner(workers=2).run(specs)

    def test_duplicate_keys_rejected(self):
        specs = [JobSpec(key="x", fn=_square, args=(1,)), JobSpec(key="x", fn=_square, args=(2,))]
        with pytest.raises(JobError, match="duplicate job key"):
            JobRunner(workers=1).run(specs)

    def test_bad_configuration_rejected(self):
        with pytest.raises(JobError, match="workers must be >= 1"):
            JobRunner(workers=0)

    def test_empty_batch(self):
        assert JobRunner(workers=2).run([]) == []

    def test_summarize_run(self):
        runner = JobRunner(workers=1)
        results = runner.run([JobSpec(key=f"s/{i}", fn=_sleepless, args=(5000,)) for i in range(3)])
        summary = summarize_run(runner, results, wall_s=1.0)
        assert summary["jobs"] == 3 and summary["workers"] == 1
        assert summary["backend"] == "serial"
        assert summary["serial_estimate_s"] == pytest.approx(sum(r.wall_s for r in results))
        assert summary["parallel_speedup"] == pytest.approx(summary["serial_estimate_s"])

    def test_execute_job_is_the_serial_semantics(self):
        spec = JobSpec(key="one", fn=_square, args=(3,), seed=11)
        direct = execute_job(spec)
        via_runner = JobRunner(workers=1).run([spec])[0]
        assert direct.value == via_runner.value == 9
        assert direct.seed == via_runner.seed == 11


class TestCanonicalDocument:
    def test_volatile_keys(self):
        assert is_volatile_key("runtime_s") and is_volatile_key("wall_s")
        assert is_volatile_key("inner_loop_speedup") and is_volatile_key("speedup_ok")
        assert is_volatile_key("parallel") and is_volatile_key("workers")
        assert not is_volatile_key("bins") and not is_volatile_key("noise_power")

    def test_recursive_strip(self):
        document = {
            "noise_power": 1.0,
            "runtime_s": 0.5,
            "parallel": {"workers": 4},
            "circuits": [{"total_runtime_s": 2.0, "cost": 7}],
        }
        assert canonical_document(document) == {"noise_power": 1.0, "circuits": [{"cost": 7}]}


class TestShardedMonteCarlo:
    def problem_bits(self):
        from repro.dfg.range_analysis import infer_ranges

        circuit = get_circuit("quadratic")
        ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
        assignment = WordLengthAssignment.uniform(circuit.graph, 10, ranges)
        return circuit, assignment

    def test_worker_count_independent(self):
        from repro.analysis.montecarlo import monte_carlo_error_sharded

        circuit, assignment = self.problem_bits()
        kwargs = dict(samples=3000, chunk_size=1024, seed=3)
        one = monte_carlo_error_sharded(
            circuit.graph, assignment, circuit.input_ranges, workers=1, **kwargs
        )
        two = monte_carlo_error_sharded(
            circuit.graph, assignment, circuit.input_ranges, workers=2, **kwargs
        )
        assert one.noise_power == two.noise_power
        assert one.bounds.lo == two.bounds.lo and one.bounds.hi == two.bounds.hi
        assert np.array_equal(one.errors, two.errors)
        assert one.samples == 3000 and len(one.errors) == 3000

    def test_chunking_is_part_of_the_contract(self):
        from repro.analysis.montecarlo import monte_carlo_error_sharded

        circuit, assignment = self.problem_bits()
        small = monte_carlo_error_sharded(
            circuit.graph, assignment, circuit.input_ranges, samples=2000, chunk_size=500, seed=0
        )
        large = monte_carlo_error_sharded(
            circuit.graph, assignment, circuit.input_ranges, samples=2000, chunk_size=2000, seed=0
        )
        # different chunk topologies are different (equally valid) draws
        assert small.noise_power != large.noise_power

    def test_problem_snr_plumbing(self):
        from repro.optimize import OptimizationProblem

        circuit, _ = self.problem_bits()
        problems = {
            workers: OptimizationProblem.from_circuit(
                circuit,
                40.0,
                config=OptimizeConfig(snr_floor_db=40.0, method="ia", mc_workers=workers),
            )
            for workers in (None, 1, 2)
        }
        assignment = problems[None].uniform(12)
        snr = {
            workers: problem.monte_carlo_snr(assignment, samples=2000, seed=1)
            for workers, problem in problems.items()
        }
        # the sharded stream is the same on one worker and on two
        assert snr[1] == snr[2]
        assert np.isfinite(snr[None])
        # entropy + sharding: the workers are honored, not dropped
        entropic = problems[2].monte_carlo_snr(assignment, samples=2000, seed=None)
        assert np.isfinite(entropic)
        assert all(problem.degradations == [] for problem in problems.values())


SMOKE_ANALYSIS = dict(
    config=AnalysisConfig(word_length=10, horizon=2, mc_samples=300, seed=5)
)


class TestSerialParallelBitIdentity:
    """The determinism contract: N workers merge to the serial document."""

    def test_bench_analysis_all_circuits(self):
        serial = run_benchmarks(workers=1, **SMOKE_ANALYSIS)
        parallel = run_benchmarks(workers=2, **SMOKE_ANALYSIS)
        assert set(serial["circuits"]) == set(CIRCUITS)
        assert canonical_document(serial) == canonical_document(parallel)
        assert serial["parallel"]["backend"] == "serial"
        assert parallel["parallel"]["backend"] == "process"
        assert parallel["parallel"]["jobs"] == len(CIRCUITS)

    def test_bench_optimize_worker_count_sweep(self):
        config = dict(
            config=bench_optimize.DEFAULTS.replace(snr_floor_db=45.0, horizon=2, bins=8),
            circuits=["quadratic", "fir4", "sigmoid_neuron"],
            methods=("ia",),
            mc_samples=1000,
            seed=2,
        )
        documents = [run_optimize_benchmarks(workers=n, **config) for n in (1, 2, 3)]
        first = canonical_document(documents[0])
        for document in documents[1:]:
            assert canonical_document(document) == first
        assert documents[0]["all_validated"] is True

    def test_derived_seeds_differ_per_job(self):
        document = run_benchmarks(workers=1, **SMOKE_ANALYSIS)
        seeds = [entry["seed"] for entry in document["circuits"].values()]
        assert len(set(seeds)) == len(seeds)

    def test_hash_seed_independence(self, tmp_path):
        """Different PYTHONHASHSEED must not move a single BENCH bit.

        Regression test for a set-union bug the affine term merge once
        had (today's merge is ``_folded`` in ``repro.intervals.affine``):
        set iteration follows the per-process string-hash seed, so any
        set-ordered float reduction makes worker processes disagree with
        the parent in the last ulp.
        """
        import json
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        documents = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"doc-{hash_seed}.json"
            env = dict(os.environ)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "bench", "optimize", "--",
                    "--circuit", "quadratic", "--method", "aa",
                    "--snr-floor", "45",
                    "--samples", "1000", "--horizon", "2",
                    "--out", str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            documents.append(json.loads(out.read_text()))
        assert canonical_document(documents[0]) == canonical_document(documents[1])
