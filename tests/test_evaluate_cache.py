"""Assignment keys, evaluation memoization, and evaluator equivalence."""

from __future__ import annotations

import math

import pytest

from conftest import reference_noise
from repro.analysis.incremental import IncrementalAnalyzer
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.config import OptimizeConfig
from repro.dfg.range_analysis import infer_ranges
from repro.errors import OptimizationError
from repro.fixedpoint.format import OverflowMode, QuantizationMode
from repro.noisemodel.analyzer import ANALYSIS_METHODS
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
        result = get_optimizer("greedy").optimize(problem)
        assert problem.evaluate_cache_hits > 0
        assert result.iterations
        assert all(record.cache_hits >= 0 for record in result.iterations)
        assert result.iterations[-1].cache_hits == problem.evaluate_cache_hits
        assert result.extra["evaluate_cache_hits"] == float(problem.evaluate_cache_hits)
        doc = result.to_dict()
        assert "cache_hits" in doc["iterations"][0]


def assert_trajectory_matches_reference(problem):
    """Every candidate the search evaluated equals the from-scratch reference."""
    assert problem.analysis_log, "the search evaluated nothing"
    for assignment in problem.analysis_log:
        evaluation = problem.evaluate(assignment)
        assert evaluation.noise_power == reference_noise(problem, assignment), assignment.key()


class TestEvaluatorEquivalence:
    """Searches on the incremental engine evaluate what a from-scratch analyzer would.

    Each search logs every candidate it analyzes; every logged
    candidate's evaluation must equal :func:`reference_noise` with
    ``==``.  The same evaluation sequence means the same search, so the
    whole trajectory is the one the from-scratch evaluator would take.
    """

    @pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
    @pytest.mark.parametrize("method", [*ANALYSIS_METHODS, "pna@0.999", "aa@1.0"])
    def test_incremental_and_legacy_paths_agree(self, circuit_name, method):
        method, _, confidence = method.partition("@")
        problem = make_problem(
            circuit_name, method=method, confidence=float(confidence) if confidence else None
        )
        problem.analysis_log = []
        result = get_optimizer("greedy").optimize(problem)
        assert result.feasible
        assert_trajectory_matches_reference(problem)

    def test_trajectory_check_catches_a_one_ulp_evaluation_drift(self, monkeypatch):
        """The reference comparison is ``==``: a one-ulp drift in the engine fails it."""
        real = IncrementalAnalyzer.noise_power

        def nudged(self, *args, **kwargs):
            return math.nextafter(real(self, *args, **kwargs), math.inf)

        monkeypatch.setattr(IncrementalAnalyzer, "noise_power", nudged)
        problem = make_problem("fft_butterfly", method="ia")
        problem.analysis_log = []
        get_optimizer("greedy").optimize(problem)
        with pytest.raises(AssertionError):
            assert_trajectory_matches_reference(problem)

    @pytest.mark.parametrize("method", ["ia", "pna"])
    def test_evaluator_paths_agree_on_generated_graphs(self, method, random_circuit_factory):
        """Trajectory equivalence fuzzed over generated circuits.

        Generated graphs exercise the nonlinear operator rules (and the
        domain-error-means-infeasible handling) through the incremental
        evaluator and the from-scratch reference alike.
        """
        for seed in (2001, 2002, 2003):
            problem = OptimizationProblem.from_circuit(
                random_circuit_factory(seed),
                FLOOR,
                config=OptimizeConfig(
                    snr_floor_db=FLOOR, method=method, horizon=4, bins=8, margin_db=1.0
                ),
            )
            problem.analysis_log = []
            get_optimizer("greedy").optimize(problem)
            assert_trajectory_matches_reference(problem)


def with_modes(assignment, quantization=None, overflow=None):
    return WordLengthAssignment(
        dict(assignment.formats),
        quantization or assignment.quantization,
        overflow or assignment.overflow,
    )


class TestForeignModes:
    """``evaluate`` rejects assignments whose modes differ from the problem's.

    The one incremental engine is built for the problem's quantization
    and overflow modes, so a foreign-mode candidate is a caller error,
    raised before the cache lookup and before any engine is built.
    """

    @pytest.mark.parametrize(
        "modes",
        [{"quantization": QuantizationMode.TRUNCATE}, {"overflow": OverflowMode.WRAP}],
        ids=["truncate", "wrap"],
    )
    def test_evaluate_raises_on_foreign_modes(self, modes):
        problem = make_problem("fir4", method="ia")
        design = problem.uniform(12)
        problem.evaluate(design)
        calls = problem.analyzer_calls
        foreign = with_modes(design, **modes)
        with pytest.raises(OptimizationError, match="modes"):
            problem.evaluate(foreign)
        assert problem.analyzer_calls == calls
        assert problem.degradations == []

    @pytest.mark.parametrize("strategy", ["greedy"])
    def test_truncate_warm_start_raises(self, strategy):
        problem = make_problem("fir4", method="ia")
        warm = with_modes(problem.uniform(14), QuantizationMode.TRUNCATE)
        with pytest.raises(OptimizationError, match="modes"):
            get_optimizer(strategy).optimize(problem, warm_start=warm)
        assert problem.degradations == []

    def test_foreign_first_evaluation_builds_no_engine(self):
        problem = make_problem("fir4", method="ia")
        design = problem.uniform(12)
        with pytest.raises(OptimizationError):
            problem.evaluate(with_modes(design, QuantizationMode.TRUNCATE))
        assert problem._state.incremental is None
        assert problem.evaluate(design).noise_power == reference_noise(problem, design)

    def test_problem_modes_come_from_the_config(self):
        problem = make_problem("fir4", method="ia", quantization="truncate")
        design = problem.uniform(12)
        assert design.quantization is QuantizationMode.TRUNCATE
        assert problem.evaluate(design).noise_power == reference_noise(problem, design)
        with pytest.raises(OptimizationError):
            problem.evaluate(with_modes(design, QuantizationMode.ROUND))
