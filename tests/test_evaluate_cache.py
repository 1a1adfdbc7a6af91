"""Assignment keys, evaluation memoization, and evaluator equivalence."""

from __future__ import annotations

import pytest

from repro.benchmarks.circuits import get_circuit
from repro.config import OptimizeConfig
from repro.dfg.range_analysis import infer_ranges
from repro.noisemodel.assignment import WordLengthAssignment
from repro.optimize import OptimizationProblem, get_optimizer

FLOOR = 58.0


def make_problem(circuit_name="quadratic", method="aa", **options):
    options.setdefault("horizon", 4)
    options.setdefault("bins", 8)
    options.setdefault("margin_db", 1.0)
    config = OptimizeConfig(snr_floor_db=FLOOR, method=method, **options)
    return OptimizationProblem.from_circuit(get_circuit(circuit_name), FLOOR, config=config)


class TestAssignmentKey:
    def test_key_is_order_insensitive_and_hashable(self):
        circuit = get_circuit("poly3")
        ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
        assignment = WordLengthAssignment.uniform(circuit.graph, 10, ranges)
        shuffled = WordLengthAssignment(
            dict(reversed(list(assignment.formats.items()))),
            assignment.quantization,
            assignment.overflow,
        )
        assert assignment.key() == shuffled.key()
        assert hash(assignment.key()) == hash(shuffled.key())

    def test_key_distinguishes_formats_and_modes(self):
        circuit = get_circuit("poly3")
        ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
        assignment = WordLengthAssignment.uniform(circuit.graph, 10, ranges)
        node = next(iter(assignment.formats))
        shaved = assignment.with_fractional_bits(
            node, assignment.format_of(node).fractional_bits - 1
        )
        assert assignment.key() != shaved.key()
        from repro.fixedpoint.format import QuantizationMode

        truncated = WordLengthAssignment(
            dict(assignment.formats), QuantizationMode.TRUNCATE, assignment.overflow
        )
        assert assignment.key() != truncated.key()


class TestEvaluateMemoization:
    def test_repeated_evaluation_is_served_from_cache(self):
        problem = make_problem()
        design = problem.uniform(12)
        first = problem.evaluate(design)
        calls = problem.analyzer_calls
        second = problem.evaluate(design)
        assert problem.analyzer_calls == calls
        assert problem.evaluate_cache_hits == 1
        assert second is first

    def test_distinct_designs_are_not_conflated(self):
        problem = make_problem()
        a = problem.evaluate(problem.uniform(12))
        b = problem.evaluate(problem.uniform(13))
        assert a.cost != b.cost
        assert problem.evaluate_cache_hits == 0

    def test_trace_records_cache_hits(self):
        problem = make_problem()
        result = get_optimizer("anneal", iterations=30, seed=3).optimize(problem)
        assert result.iterations
        assert all(record.cache_hits >= 0 for record in result.iterations)
        assert result.iterations[-1].cache_hits == problem.evaluate_cache_hits
        assert result.extra["evaluate_cache_hits"] == float(problem.evaluate_cache_hits)
        doc = result.to_dict()
        assert "cache_hits" in doc["iterations"][0]

    def test_analysis_time_is_accounted(self):
        problem = make_problem()
        assert problem.analysis_time_s == 0.0
        problem.evaluate(problem.uniform(12))
        assert problem.analysis_time_s > 0.0


class TestEvaluatorEquivalence:
    @pytest.mark.parametrize("circuit_name", ["poly3", "fft_butterfly", "iir_biquad"])
    @pytest.mark.parametrize("method", ["ia", "aa", "sna"])
    def test_incremental_and_legacy_paths_agree(self, circuit_name, method):
        results = {}
        for engine in ("incremental", "fresh"):
            problem = make_problem(circuit_name, method=method, engine=engine)
            result = get_optimizer("greedy").optimize(problem)
            assert result.feasible
            results[engine] = result
        incremental, legacy = results["incremental"], results["fresh"]
        assert incremental.cost == legacy.cost
        assert incremental.snr_db == pytest.approx(legacy.snr_db, rel=1e-9)
        assert incremental.assignment.key() == legacy.assignment.key()

    def test_annealing_deterministic_across_evaluators(self):
        first = get_optimizer("anneal", iterations=40, seed=7).optimize(make_problem())
        second = get_optimizer("anneal", iterations=40, seed=7).optimize(
            make_problem(engine="fresh")
        )
        assert first.cost == pytest.approx(second.cost)
        assert first.assignment.key() == second.assignment.key()

    @pytest.mark.parametrize("method", ["ia", "sna"])
    def test_evaluator_paths_agree_on_generated_graphs(self, method, random_circuit_factory):
        """Optimizer equivalence fuzzed over generated circuits.

        Generated graphs exercise the nonlinear operator rules (and the
        domain-error-means-infeasible handling) through the memoized
        incremental evaluator and the from-scratch one alike.
        """
        for seed in (2001, 2002, 2003):
            circuit = random_circuit_factory(seed)
            results = {}
            for engine in ("incremental", "fresh"):
                problem = OptimizationProblem.from_circuit(
                    circuit,
                    FLOOR,
                    config=OptimizeConfig(
                        snr_floor_db=FLOOR,
                        method=method,
                        horizon=4,
                        bins=8,
                        margin_db=1.0,
                        engine=engine,
                    ),
                )
                results[engine] = get_optimizer("greedy").optimize(problem)
            incremental, legacy = results["incremental"], results["fresh"]
            assert incremental.feasible == legacy.feasible
            if incremental.feasible:
                assert incremental.cost == legacy.cost
                assert incremental.assignment.key() == legacy.assignment.key()
