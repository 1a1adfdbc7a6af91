"""End-to-end pipeline tests on the paper's quadratic example."""

import json

import pytest

from repro.analysis import ALL_METHODS, AnalysisConfig, NoiseAnalysisPipeline
from repro.errors import NoiseModelError
from repro.symbols.expression import Symbol

RANGES = {"x": (-4.0, 3.0)}


@pytest.fixture(scope="module")
def quadratic_report():
    pipeline = NoiseAnalysisPipeline(AnalysisConfig(word_length=12, mc_samples=20_000, seed=0))
    x = Symbol("x")
    return pipeline.analyze(x**2 + x, input_ranges=RANGES, name="quadratic")


class TestQuadraticEndToEnd:
    def test_all_methods_ran(self, quadratic_report):
        assert quadratic_report.methods == list(ALL_METHODS)

    def test_analytic_bounds_enclose_monte_carlo(self, quadratic_report):
        mc = quadratic_report.result("montecarlo")
        for method in ("ia", "aa", "taylor"):
            bounds = quadratic_report.result(method).bounds
            assert bounds.lo <= mc.lower, method
            assert mc.upper <= bounds.hi, method
            assert quadratic_report.enclosure[method], method

    def test_affine_not_wider_than_interval(self, quadratic_report):
        assert (
            quadratic_report.result("aa").width <= quadratic_report.result("ia").width + 1e-15
        )

    def test_pna_noise_power_close_to_monte_carlo(self, quadratic_report):
        pna = quadratic_report.result("pna").noise_power
        mc = quadratic_report.result("montecarlo").noise_power
        assert pna == pytest.approx(mc, rel=0.25)

    def test_report_structure(self, quadratic_report):
        assert quadratic_report.circuit == "quadratic"
        assert quadratic_report.node_count == len(quadratic_report.ranges)
        assert all(len(pair) == 2 for pair in quadratic_report.ranges.values())
        # x in [-4, 3] => x^2 in [0, 16] thanks to the dependency-aware square
        square_ranges = [
            pair for name, pair in quadratic_report.ranges.items() if name.startswith("square")
        ]
        assert square_ranges and square_ranges[0] == [0.0, 16.0]

    def test_report_serializes_to_json(self, quadratic_report, tmp_path):
        path = tmp_path / "report.json"
        quadratic_report.to_json(path)
        document = json.loads(path.read_text())
        assert set(document["results"]) == set(ALL_METHODS)
        assert document["enclosure"]["ia"] is True

    def test_runtimes_recorded(self, quadratic_report):
        for method in ALL_METHODS:
            assert quadratic_report.result(method).runtime_s >= 0.0


class TestDivisionCircuit:
    def test_all_methods_handle_division(self):
        """Regression: TaylorModel lacked __truediv__, crashing 'taylor' on DIV."""
        pipeline = NoiseAnalysisPipeline(AnalysisConfig(word_length=12, mc_samples=4_000, seed=3))
        x, y = Symbol("x"), Symbol("y")
        report = pipeline.analyze(
            x / y, input_ranges={"x": (-1.0, 1.0), "y": (1.0, 2.0)}, name="divider"
        )
        assert list(report.results) == list(ALL_METHODS)
        for method in ("ia", "aa", "taylor"):
            assert report.enclosure[method], method


class TestPipelineValidation:
    def test_single_method_selection(self):
        pipeline = NoiseAnalysisPipeline(AnalysisConfig(word_length=10, mc_samples=500))
        x = Symbol("x")
        report = pipeline.analyze(x * x, method="ia", input_ranges={"x": (-1.0, 1.0)})
        assert report.methods == ["ia"]
        assert report.enclosure == {}

    def test_unknown_method_rejected(self):
        pipeline = NoiseAnalysisPipeline()
        x = Symbol("x")
        with pytest.raises(NoiseModelError):
            pipeline.analyze(x + 1.0, method="spectral", input_ranges={"x": (0.0, 1.0)})

    def test_missing_ranges_rejected(self):
        pipeline = NoiseAnalysisPipeline()
        x = Symbol("x")
        with pytest.raises(NoiseModelError):
            pipeline.analyze(x + 1.0, input_ranges={})
