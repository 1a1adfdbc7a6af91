"""End-to-end tests of the word-length optimization subsystem."""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisConfig, NoiseAnalysisPipeline
from repro.benchmarks.circuits import get_circuit
from repro.config import OptimizeConfig
from repro.errors import OptimizationError
from repro.optimize import (
    HardwareCostModel,
    OptimizationProblem,
    get_optimizer,
)

# Chosen so the cheapest feasible uniform design lands with a few dB of
# slack over the floor: quadratic's AA SNR steps ~6 dB per uniform bit
# (50.5 dB at W=10, 56.5 at W=11, 62.5 at W=12), so a 58 dB floor with
# the 1 dB test margin leaves ~3.5 dB for the shavers to trade for area.
# A floor landing with near-zero slack makes uniform == optimized the
# genuinely correct answer, which is not what these tests probe.
FLOOR = 58.0


def make_problem(
    circuit_name: str = "quadratic",
    method: str = "aa",
    cost_model: HardwareCostModel | None = None,
    **options,
):
    options.setdefault("horizon", 4)
    options.setdefault("bins", 8)
    options.setdefault("margin_db", 1.0)
    config = OptimizeConfig(snr_floor_db=FLOOR, method=method, **options)
    return OptimizationProblem.from_circuit(
        get_circuit(circuit_name), FLOOR, config=config, cost_model=cost_model
    )


class TestProblem:
    def test_evaluate_counts_analyzer_calls(self):
        problem = make_problem()
        assert problem.analyzer_calls == 0
        evaluation = problem.evaluate(problem.uniform(12))
        assert problem.analyzer_calls == 1
        assert evaluation.index == 1
        assert evaluation.cost > 0.0
        assert evaluation.snr_db > 0.0

    def test_delays_are_not_tunable(self):
        problem = make_problem("iir_biquad")
        graph = problem.graph
        assert all(graph.node(n).op.value != "delay" for n in problem.tunable)
        assert all(graph.node(n).op.value != "output" for n in problem.tunable)

    def test_unknown_method_rejected(self):
        with pytest.raises(OptimizationError, match="unknown analysis method"):
            make_problem(method="voodoo")

    def test_evaluate_rewidens_formats_that_clip_after_a_shave(self):
        # x's range [0.5, 1.75] needs 2 integer bits and >= 2 fractional
        # bits to reach 1.75 (max_value = 2 - 2^-f); shaving to 1
        # fractional bit would silently clip unless evaluate() re-widens.
        from repro.dfg.builder import DFGBuilder

        builder = DFGBuilder("clip")
        x = builder.input("x")
        builder.output(x + builder.const(0.0), name="y")
        problem = OptimizationProblem(
            builder.build(),
            {"x": (0.5, 1.75)},
            10.0,
            config=OptimizeConfig(snr_floor_db=10.0, method="aa", horizon=2, bins=8),
        )
        shaved = problem.uniform(6).with_fractional_bits("x", 1)
        assert shaved.format_of("x").max_value < 1.75
        evaluation = problem.evaluate(shaved)
        fmt = evaluation.assignment.format_of("x")
        assert fmt.max_value >= 1.75

    def test_uniform_evaluations_are_cached_across_strategies(self):
        problem = make_problem()
        get_optimizer("uniform").optimize(problem)
        calls_after_first = problem.analyzer_calls
        result = get_optimizer("uniform").optimize(problem)
        assert result.feasible
        assert problem.analyzer_calls == calls_after_first  # all cache hits

    def test_predicted_noise_increase_is_nonnegative_and_ranks(self):
        problem = make_problem()
        assignment = problem.uniform(12)
        for node in problem.tunable:
            fmt = assignment.format_of(node)
            if fmt.fractional_bits == 0:
                continue
            delta = problem.predicted_noise_increase(
                assignment, node, fmt.fractional_bits - 1
            )
            assert delta >= 0.0


class TestUniformSweep:
    def test_finds_cheapest_feasible_uniform(self):
        problem = make_problem()
        result = get_optimizer("uniform").optimize(problem)
        assert result.feasible
        assert result.snr_db >= FLOOR
        assert result.cost == result.baseline_cost
        assert result.baseline_word_length is not None
        # one bit less must be infeasible (that is what "cheapest" means)
        w = result.baseline_word_length
        if w - 1 >= problem.min_word_length:
            leaner = problem.evaluate(problem.uniform(w - 1))
            assert not leaner.feasible

    def test_infeasible_floor_reported_not_raised(self):
        problem = make_problem(max_word_length=8)
        problem.snr_floor_db = 500.0
        result = get_optimizer("uniform").optimize(problem)
        assert not result.feasible
        assert result.assignment is None
        assert result.cost == float("inf")


class TestGreedy:
    def test_beats_uniform_baseline_and_stays_feasible(self):
        problem = make_problem()
        result = get_optimizer("greedy").optimize(problem)
        assert result.feasible
        assert result.snr_db >= FLOOR
        assert result.baseline_cost is not None
        assert result.cost < result.baseline_cost
        assert result.improvement and result.improvement > 0.0

    def test_accepted_shaves_reduce_cost_monotonically(self):
        problem = make_problem("fft_butterfly")
        result = get_optimizer("greedy").optimize(problem)
        # one descent per start point, tagged "[W<start>]" in the action
        descents: dict[str, list[float]] = {}
        for record in result.iterations:
            if record.accepted and "shave" in record.action:
                tag = record.action.split("]", 1)[0]
                descents.setdefault(tag, []).append(record.cost)
        assert descents
        for costs in descents.values():
            assert costs == sorted(costs, reverse=True)
        assert all(
            record.feasible for record in result.iterations if record.accepted
        )

    def test_returned_design_passes_monte_carlo(self):
        problem = make_problem()
        result = get_optimizer("greedy").optimize(problem)
        mc_snr = problem.monte_carlo_snr(result.assignment, samples=4_000, seed=0)
        assert mc_snr >= FLOOR

    def test_analyzer_calls_accounted(self):
        problem = make_problem()
        result = get_optimizer("greedy").optimize(problem)
        assert result.analyzer_calls == problem.analyzer_calls
        assert result.analyzer_calls >= len(
            [r for r in result.iterations if "shave" in r.action]
        )

    def test_bad_options_rejected(self):
        with pytest.raises(OptimizationError, match="headroom"):
            get_optimizer("greedy", headroom=-1)
        with pytest.raises(OptimizationError, match="strategy 'greedy' takes no option 'bogus'"):
            get_optimizer("greedy", bogus=1)
        with pytest.raises(OptimizationError, match="strategy 'uniform' takes no option"):
            get_optimizer("uniform", headroom=1)


class TestPipelineWiring:
    """The problem API searches; the pipeline analyzes what it returns."""

    def test_pipeline_optimize_returns_result(self):
        result = get_optimizer("greedy").optimize(make_problem())
        assert result.strategy == "greedy"
        assert result.method == "aa"
        assert result.feasible
        # the optimized assignment is consumable by the analysis pipeline
        pipeline = NoiseAnalysisPipeline(AnalysisConfig(horizon=4))
        report = pipeline.analyze(
            get_circuit("quadratic"), assignment=result.assignment, method="aa"
        )
        assert report.results["aa"].snr_db >= FLOOR

    def test_unknown_strategy_raises(self):
        with pytest.raises(OptimizationError, match="unknown optimization strategy"):
            get_optimizer("gradient")
        with pytest.raises(OptimizationError, match="unknown optimization strategy"):
            make_problem().pareto([FLOOR], strategy="gradient")

    def test_custom_cost_model_is_used(self):
        free = HardwareCostModel(
            HardwareCostModel().table.scaled(0.0, name="free")
        )
        result = get_optimizer("uniform").optimize(make_problem(cost_model=free))
        assert result.cost == 0.0

    def test_result_serializes(self):
        result = get_optimizer("uniform").optimize(make_problem())
        doc = result.to_dict()
        assert doc["strategy"] == "uniform"
        assert doc["iteration_count"] == len(doc["iterations"])
        assert isinstance(result.summary(), str)
