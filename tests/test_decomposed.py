"""Tests of the decomposed (partition / solve / reconcile) optimizer."""

from __future__ import annotations

import json

import pytest

from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.cli import main
from repro.config import OptimizeConfig
from repro.errors import OptimizationError
from repro.jobs.checkpoint import SearchCheckpoint
from repro.jobs.runner import JobRunner
from repro.optimize import OptimizationProblem, get_optimizer
from repro.optimize.decomposed import DecomposedOptimizer

# Matches the bench_scale gate conditions (5% quality-gap limit is
# calibrated against a 60 dB floor with no extra margin).
FLOOR = 60.0


def make_problem(circuit_name: str = "fir4", **options):
    options.setdefault("horizon", 4)
    options.setdefault("bins", 8)
    options.setdefault("margin_db", 0.0)
    config = OptimizeConfig(snr_floor_db=FLOOR, method="ia", **options)
    if circuit_name in CIRCUITS:
        circuit = get_circuit(circuit_name)
    else:
        circuit = generate_circuit(circuit_name)
    return OptimizationProblem.from_circuit(circuit, FLOOR, config=config)


class TestConstruction:
    def test_invalid_partitions_rejected(self):
        with pytest.raises(OptimizationError, match="partitions"):
            DecomposedOptimizer(partitions=0)

    def test_invalid_outer_iterations_rejected(self):
        with pytest.raises(OptimizationError, match="outer_iterations"):
            DecomposedOptimizer(outer_iterations=0)

    def test_invalid_retries_rejected(self):
        with pytest.raises(OptimizationError, match="retries"):
            DecomposedOptimizer(retries=0)

    def test_recursive_inner_rejected(self):
        with pytest.raises(OptimizationError, match="inner"):
            DecomposedOptimizer(inner="decomposed")

    def test_unknown_inner_rejected(self):
        with pytest.raises(OptimizationError):
            DecomposedOptimizer(inner="voodoo")

    def test_registered_in_strategy_registry(self):
        assert isinstance(get_optimizer("decomposed"), DecomposedOptimizer)

    @pytest.mark.parametrize(
        "inner_options,match",
        [
            ({"bogus": 1}, "strategy 'greedy' takes no option 'bogus'"),
            ({"headroom": -1}, "headroom"),
        ],
    )
    def test_bad_inner_options_rejected_before_any_job(self, monkeypatch, inner_options, match):
        dispatched = []
        monkeypatch.setattr(JobRunner, "run", lambda self, specs: dispatched.append(specs))
        with pytest.raises(OptimizationError, match=match):
            get_optimizer("decomposed", inner_options=inner_options, partitions=2).optimize(
                make_problem()
            )
        assert dispatched == []


class TestQuality:
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_within_a_few_percent_of_greedy(self, circuit):
        greedy = get_optimizer("greedy").optimize(make_problem(circuit))
        decomposed = DecomposedOptimizer(workers=1, seed=0).optimize(
            make_problem(circuit)
        )
        assert greedy.feasible and decomposed.feasible
        gap = (decomposed.cost - greedy.cost) / greedy.cost
        assert gap <= 0.05, f"{circuit}: decomposed {gap:+.2%} vs greedy"

    def test_forced_multi_partition_stays_feasible(self):
        # Forcing a split on a circuit small enough for one partition
        # costs consensus conservatism at the cut; it must never cost
        # feasibility, and the overhead stays bounded.
        greedy = get_optimizer("greedy").optimize(make_problem("fir4"))
        decomposed = DecomposedOptimizer(partitions=2, workers=1).optimize(
            make_problem("fir4")
        )
        assert decomposed.feasible
        assert (decomposed.cost - greedy.cost) / greedy.cost <= 0.15
        assert decomposed.cost <= decomposed.baseline_cost

    def test_generated_circuit_monte_carlo_validates(self):
        problem = make_problem("fir_cascade:taps=4,samples=8")
        result = DecomposedOptimizer(partitions=2, workers=1).optimize(problem)
        assert result.feasible
        mc_snr = problem.monte_carlo_snr(result.assignment, samples=512, seed=0)
        assert mc_snr >= FLOOR

    def test_deterministic_across_runs(self):
        first = DecomposedOptimizer(partitions=2, workers=1).optimize(
            make_problem("fir4")
        )
        second = DecomposedOptimizer(partitions=2, workers=1).optimize(
            make_problem("fir4")
        )
        assert first.assignment.to_doc() == second.assignment.to_doc()


class _KillAfter(SearchCheckpoint):
    """Checkpoint that dies right after its Nth successful save."""

    def __init__(self, path, meta=None, *, kills_after: int) -> None:
        super().__init__(path, meta)
        self.kills_after = kills_after
        self.saves = 0

    def save(self, state) -> None:
        super().save(state)
        self.saves += 1
        if self.saves >= self.kills_after:
            raise KeyboardInterrupt("simulated crash after snapshot")


class TestResume:
    META = {"strategy": "decomposed", "circuit": "fir4"}

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        reference = DecomposedOptimizer(partitions=2, workers=1).optimize(
            make_problem("fir4")
        )
        path = tmp_path / "search.ckpt.json"

        counting = _KillAfter(path, self.META, kills_after=10**9)
        counted = DecomposedOptimizer(partitions=2, workers=1)
        try:
            counted.optimize(make_problem("fir4"), checkpoint=counting)
        except KeyboardInterrupt:  # pragma: no cover - huge kill budget
            pass
        assert counting.saves >= 2, "need at least two snapshots to test a kill"
        assert not path.exists(), "completed search must clear its checkpoint"

        killer = _KillAfter(path, self.META, kills_after=1)
        with pytest.raises(KeyboardInterrupt):
            DecomposedOptimizer(partitions=2, workers=1).optimize(
                make_problem("fir4"), checkpoint=killer
            )
        assert path.exists(), "crash must leave the snapshot behind"
        snapshot = json.loads(path.read_text())
        assert snapshot["state"]["strategy"] == "decomposed"

        resumed = DecomposedOptimizer(partitions=2, workers=1).optimize(
            make_problem("fir4"), checkpoint=SearchCheckpoint(path, self.META)
        )
        assert resumed.assignment.to_doc() == reference.assignment.to_doc()
        assert resumed.cost == pytest.approx(reference.cost)
        assert not path.exists()

    def test_mismatched_partition_count_ignores_snapshot(self, tmp_path):
        path = tmp_path / "search.ckpt.json"
        killer = _KillAfter(path, self.META, kills_after=1)
        with pytest.raises(KeyboardInterrupt):
            DecomposedOptimizer(partitions=2, workers=1).optimize(
                make_problem("fir4"), checkpoint=killer
            )
        # A different decomposition must not adopt the stale consensus.
        reference = DecomposedOptimizer(partitions=3, workers=1).optimize(
            make_problem("fir4")
        )
        resumed = DecomposedOptimizer(partitions=3, workers=1).optimize(
            make_problem("fir4"), checkpoint=SearchCheckpoint(path, self.META)
        )
        assert resumed.assignment.to_doc() == reference.assignment.to_doc()


class TestSharding:
    def test_nested_pools_degrade_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS_WORKER", "1")
        runner = DecomposedOptimizer(workers=4)._runner()
        assert runner.backend == "serial"

    def test_worker_runner_matches_serial(self):
        serial = DecomposedOptimizer(partitions=2, workers=1).optimize(
            make_problem("fir4")
        )
        sharded = DecomposedOptimizer(partitions=2, workers=2).optimize(
            make_problem("fir4")
        )
        assert sharded.assignment.to_doc() == serial.assignment.to_doc()


class TestCLI:
    def test_decomposed_strategy_on_generated_circuit(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            [
                "optimize",
                "fir_cascade:taps=4,samples=6",
                "--strategy", "decomposed",
                "--partitions", "2",
                "--method", "ia",
                "--snr-floor", "50",
                "--samples", "1000",
                "--horizon", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["strategy"] == "decomposed"
        assert document["feasible"] is True and document["mc_validated"] is True

    def test_unknown_generator_spec_rejected(self, capsys):
        assert main(["optimize", "warp_core:coils=7"]) == 2
        err = capsys.readouterr().err
        assert "unknown circuit" in err


class TestJobRunnerGuard:
    def test_plain_runner_honors_worker_marker(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS_WORKER", "1")
        assert JobRunner(workers=4).backend == "serial"
        monkeypatch.delenv("REPRO_JOBS_WORKER")
        assert JobRunner(workers=4).backend == "process"
