"""The bit-true arbitrary-precision oracle and its agreement contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import ALL_METHODS, AnalysisConfig, NoiseAnalysisPipeline
from repro.analysis.oracle import (
    AGREEMENT_TOL,
    oracle_agreement,
    oracle_error,
)
from repro.analysis.pipeline import OPTIONAL_METHODS
from repro.benchmarks.circuits import get_circuit
from repro.dfg.range_analysis import infer_ranges
from repro.errors import NoiseModelError
from repro.noisemodel.assignment import WordLengthAssignment

pytest.importorskip("mpmath")


def circuit_bits(name: str, word_length: int = 12):
    circuit = get_circuit(name)
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    assignment = WordLengthAssignment.uniform(circuit.graph, word_length, ranges)
    return circuit, assignment


class TestOracleError:
    def test_precision_must_out_resolve_float64(self):
        circuit, assignment = circuit_bits("quadratic")
        with pytest.raises(NoiseModelError, match="out-resolve float64"):
            oracle_error(
                circuit.graph,
                assignment,
                circuit.input_ranges,
                samples=4,
                precision_bits=32,
            )

    def test_deterministic_for_a_fixed_seed(self):
        circuit, assignment = circuit_bits("quadratic")
        one = oracle_error(
            circuit.graph, assignment, circuit.input_ranges, samples=32, rng=7
        )
        two = oracle_error(
            circuit.graph, assignment, circuit.input_ranges, samples=32, rng=7
        )
        assert np.array_equal(one.errors, two.errors)
        assert one.bounds.lo == two.bounds.lo and one.bounds.hi == two.bounds.hi

    def test_errors_array_is_read_only(self):
        circuit, assignment = circuit_bits("quadratic")
        result = oracle_error(
            circuit.graph, assignment, circuit.input_ranges, samples=8, rng=0
        )
        with pytest.raises(ValueError):
            result.errors[0] = 0.0


class TestOracleAgreement:
    @pytest.mark.parametrize("name,steps", [("quadratic", 1), ("fir4", 4)])
    def test_float64_validator_agrees_with_the_oracle(self, name, steps):
        circuit, assignment = circuit_bits(name)
        verdict = oracle_agreement(
            circuit.graph,
            assignment,
            circuit.input_ranges,
            samples=48,
            steps=steps,
            seed=0,
        )
        assert verdict["agreed"], (
            f"{name}: float64 validator disagrees with the oracle by "
            f"{verdict['max_abs_disagreement']} (tol {AGREEMENT_TOL})"
        )
        assert verdict["max_abs_disagreement"] <= AGREEMENT_TOL
        assert verdict["noise_power_oracle"] == pytest.approx(
            verdict["noise_power_float64"], rel=1e-6, abs=1e-18
        )


class TestPipelineOracleMethod:
    def test_oracle_is_optional_not_default(self):
        assert OPTIONAL_METHODS == ("oracle",)
        assert "oracle" not in ALL_METHODS
        pipeline = NoiseAnalysisPipeline(
            AnalysisConfig(word_length=10, horizon=2, mc_samples=400, seed=0)
        )
        report = pipeline.analyze(get_circuit("quadratic"))
        assert "oracle" not in report.results

    def test_oracle_runs_by_name_and_reports_shape(self):
        pipeline = NoiseAnalysisPipeline(
            AnalysisConfig(
                word_length=10,
                horizon=2,
                mc_samples=400,
                seed=0,
                oracle_samples=32,
                oracle_precision_bits=96,
            )
        )
        report = pipeline.analyze(get_circuit("quadratic"), method="oracle")
        result = report.results["oracle"]
        assert result.extra["samples"] == 32.0
        assert result.extra["precision_bits"] == 96.0
        assert result.lower <= result.upper
        assert result.noise_power >= 0.0

    def test_unknown_method_still_rejected(self):
        pipeline = NoiseAnalysisPipeline(AnalysisConfig(word_length=10, horizon=2))
        with pytest.raises(NoiseModelError, match="unknown analysis method"):
            pipeline.analyze(get_circuit("quadratic"), method="divination")
