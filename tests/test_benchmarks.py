"""The circuit library and benchmark driver, in smoke configuration."""

import json

import pytest

from repro.analysis import AnalysisConfig, NoiseAnalysisPipeline
from repro.benchmarks import CIRCUITS, all_circuits, get_circuit
from repro.benchmarks.bench_analysis import main as bench_main
from repro.errors import DesignError

SMOKE = NoiseAnalysisPipeline(
    AnalysisConfig(word_length=10, horizon=4, bins=12, mc_samples=1_500, seed=1)
)


class TestCircuitLibrary:
    def test_registry_contents(self):
        assert set(CIRCUITS) == {
            "quadratic",
            "poly3",
            "fir4",
            "iir_biquad",
            "fft_butterfly",
            "matmul2",
            "newton_inverse",
            "rms_normalize",
            "sigmoid_neuron",
            "log_energy",
            "complex_magnitude",
        }

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_circuits_validate(self, name):
        circuit = get_circuit(name)
        circuit.graph.validate()
        assert set(circuit.graph.inputs()) == set(circuit.input_ranges)

    def test_unknown_circuit(self):
        with pytest.raises(DesignError):
            get_circuit("does-not-exist")

    def test_sequential_flags(self):
        flags = {c.name: c.sequential for c in all_circuits()}
        assert flags["fir4"] and flags["iir_biquad"]
        assert not flags["quadratic"] and not flags["matmul2"]


class TestPipelineOnEveryCircuit:
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_all_methods_and_enclosure(self, name):
        circuit = get_circuit(name)
        report = SMOKE.analyze(circuit, output=circuit.output)
        assert len(report.results) == 6
        for method in ("ia", "aa", "taylor"):
            assert report.enclosure[method], (
                f"{name}: {method} bounds {report.result(method).bounds} do not enclose "
                f"MC [{report.result('montecarlo').lower}, {report.result('montecarlo').upper}]"
            )


class TestBenchDriver:
    def test_smoke_run_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_analysis.json"
        code = bench_main(
            ["--smoke", "--samples", "400", "--out", str(out)]
            + ["--circuit", "quadratic", "--circuit", "fir4"]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["all_enclosed"] is True
        assert set(document["circuits"]) == {"quadratic", "fir4"}
        for entry in document["circuits"].values():
            assert entry["total_runtime_s"] > 0
            assert set(entry["results"]) == {"ia", "aa", "taylor", "sna", "pna", "montecarlo"}


class TestScaleDriver:
    def test_tiny_sweep_document_structure(self, tmp_path):
        from repro.benchmarks.bench_scale import run_scale_benchmarks

        document = run_scale_benchmarks(
            points=({"spec": "fir_cascade:taps=4,samples=6", "partitions": 2},),
            mc_samples=512,
            require_nodes=0,
            checkpoint_path=str(tmp_path / "scale.ckpt"),
        )
        assert document["suite"] == "scaling"
        assert document["size_requirement_met"] is True
        assert document["passed"] is True
        (point,) = document["points"]
        assert point["spec"] == "fir_cascade:taps=4,samples=6"
        assert point["nodes"] > 0 and point["arithmetic_nodes"] > 0
        decomposed = point["decomposed"]
        assert decomposed["feasible"] is True
        assert decomposed["mc_validated"] is True
        assert decomposed["partitions"] == 2
        assert point["greedy"] is not None
        assert point["quality_gap"] is not None
        assert point["within_budget"] is True and point["passed"] is True
        assert document["time_curve"] == [
            {"nodes": point["nodes"], "runtime_s": decomposed["runtime_s"]}
        ]
        # A clean sweep leaves no checkpoint files behind.
        assert not list(tmp_path.glob("scale.ckpt*"))

    def test_size_requirement_gates_the_document(self):
        from repro.benchmarks.bench_scale import run_scale_benchmarks

        document = run_scale_benchmarks(
            points=({"spec": "fir_cascade:taps=4,samples=6", "partitions": 2},),
            mc_samples=256,
            require_nodes=5000,
        )
        assert document["size_requirement_met"] is False
        assert document["passed"] is False

    def test_smoke_cli_writes_json(self, tmp_path, capsys):
        from repro.benchmarks.bench_scale import main as scale_main

        out = tmp_path / "BENCH_scale_smoke.json"
        code = scale_main(
            [
                "--spec", "fir_cascade:taps=4,samples=6",
                "--samples", "256",
                "--out", str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["suite"] == "scaling"
        assert document["passed"] is True
        printed = capsys.readouterr().out
        assert "scaling" in printed.lower() or "scale" in printed.lower()
