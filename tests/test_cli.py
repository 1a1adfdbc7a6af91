"""Smoke tests of the unified ``python -m repro`` CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import BENCH_SUITES, main

FAST_ANALYZE = ["--samples", "500", "--horizon", "2"]


class TestAnalyze:
    def test_single_circuit_passes(self, capsys):
        assert main(["analyze", "quadratic", *FAST_ANALYZE]) == 0
        out = capsys.readouterr().out
        assert "quadratic" in out and "montecarlo" in out

    def test_writes_document(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        code = main(["analyze", "quadratic", "fir4", *FAST_ANALYZE, "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert set(document["circuits"]) == {"quadratic", "fir4"}
        assert document["all_enclosed"] is True

    def test_method_restriction(self, capsys):
        code = main(
            ["analyze", "quadratic", *FAST_ANALYZE, "--method", "ia", "--method", "montecarlo"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ia" in out and "aa " not in out

    def test_no_montecarlo_is_not_vacuously_enclosed(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        code = main(
            ["analyze", "quadratic", *FAST_ANALYZE, "--method", "ia", "--out", str(out)]
        )
        assert code == 0  # nothing violated — but nothing was validated either
        document = json.loads(out.read_text())
        assert document["all_enclosed"] is None
        assert document["enclosure_checks"] == 0
        assert "no Monte-Carlo enclosure checks ran" in capsys.readouterr().out

    def test_workers_flag(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        code = main(
            ["analyze", "quadratic", "poly3", *FAST_ANALYZE, "--workers", "2", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["parallel"]["backend"] == "process"

    def test_unknown_circuit_rejected(self, capsys):
        assert main(["analyze", "not-a-circuit"]) == 2
        assert "unknown circuit" in capsys.readouterr().err


class TestOptimize:
    def test_greedy_run_validates(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            [
                "optimize",
                "quadratic",
                "--snr-floor",
                "40",
                "--samples",
                "1000",
                "--horizon",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["feasible"] is True and document["mc_validated"] is True
        assert document["strategy"] == "greedy"
        printed = capsys.readouterr().out
        assert "monte-carlo" in printed and "word lengths" in printed

    def test_unknown_circuit_rejected(self, capsys):
        assert main(["optimize", "nope"]) == 2
        assert "unknown circuit" in capsys.readouterr().err

    def test_unknown_cost_table_rejected(self, capsys):
        assert main(["optimize", "quadratic", "--cost-table", "tnt"]) == 2
        assert "unknown cost table" in capsys.readouterr().err

    def test_retired_anneal_strategy_rejected(self, capsys):
        assert main(["optimize", "fir4", "--strategy", "anneal"]) == 2
        assert (
            "unknown optimization strategy 'anneal'; available: uniform, greedy, decomposed"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["optimize", "pareto"])
    def test_retired_anneal_iterations_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "fir4", "--anneal-iterations", "50"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --anneal-iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize", "pareto"])
    def test_search_commands_take_no_bins_flag(self, command, capsys):
        # No analysis builds a histogram, so no command sizes one.
        with pytest.raises(SystemExit) as exited:
            main([command, "fir4", "--bins", "8"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --bins" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "fir4"],
            *(["bench", suite, "--"] for suite in ("analysis", "optimize", "pareto")),
        ],
        ids=["analyze", "bench-analysis", "bench-optimize", "bench-pareto"],
    )
    def test_analyze_and_drivers_take_no_bins_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--bins", "8"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --bins" in capsys.readouterr().err

    def test_batched_engine_flag(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            ["optimize", "fir4", "--snr-floor", "50", "--method", "ia",
             "--engine", "batched", "--samples", "1000",
             "--horizon", "3", "--out", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["feasible"] is True and document["mc_validated"] is True


class TestPareto:
    @pytest.mark.parametrize("circuit", ["fir4", "sigmoid_neuron"])
    def test_one_call_monotone_curve(self, circuit, tmp_path, capsys):
        out = tmp_path / "front.json"
        code = main(
            ["pareto", circuit, "--method", "ia", "--floor", "45", "--floor", "55",
             "--floor", "65", "--horizon", "3", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "monotone" in printed and "NOT MONOTONE" not in printed
        document = json.loads(out.read_text())
        assert document["monotone"] is True
        floors = [p["snr_floor_db"] for p in document["points"]]
        assert floors == [45.0, 55.0, 65.0]
        costs = [p["cost"] for p in document["points"] if p["feasible"]]
        assert costs == sorted(costs)

    def test_unknown_circuit_rejected(self, capsys):
        assert main(["pareto", "nope"]) == 2
        assert "unknown circuit" in capsys.readouterr().err

    def test_generator_spec(self, tmp_path, capsys):
        out = tmp_path / "front.json"
        code = main(
            ["pareto", "fir_cascade:taps=2,samples=4", "--method", "ia", "--floor", "40",
             "--floor", "50", "--horizon", "3", "--out", str(out)]
        )
        assert code == 0
        assert [p["snr_floor_db"] for p in json.loads(out.read_text())["points"]] == [40.0, 50.0]


class TestBenchDispatch:
    def test_unknown_suite_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["bench", "perf", "--", "--smoke"])
        assert exited.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_help_names_every_suite_and_no_retired_one(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        words = capsys.readouterr().out.replace("(", " ").replace(")", " ").split()
        assert all(suite in words for suite in BENCH_SUITES)
        assert "perf" not in words

    def test_bench_analysis_smoke(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        code = main(
            [
                "bench",
                "analysis",
                "--",
                "--smoke",
                "--circuit",
                "quadratic",
                "--samples",
                "300",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["all_enclosed"] is True

    def test_bench_compare_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        assert (
            main(
                ["bench", "analysis", "--", "--smoke", "--circuit", "quadratic",
                 "--samples", "300", "--out", str(out)]
            )
            == 0
        )
        # identical documents must pass the regression gate
        assert main(["bench", "compare", "--", str(out), str(out), "--summary", ""]) == 0

    def test_bench_compare_step_summary_env(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "BENCH.json"
        summary = tmp_path / "summary.md"
        main(["bench", "analysis", "--", "--smoke", "--circuit", "quadratic",
              "--samples", "300", "--out", str(out)])
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert main(["bench", "compare", "--", str(out), str(out)]) == 0
        assert "Benchmark regression" in summary.read_text()


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("repro ")

    def test_python_dash_m_repro_analyze(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "quadratic", *FAST_ANALYZE],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "montecarlo" in proc.stdout

    def test_importing_the_cli_loads_no_benchmark_driver(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.benchmarks.bench_')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
