"""Every ``repro`` subcommand and ``bench_*`` driver keeps its defaults.

An empty argument list (just the positional circuit where one is
required) must build exactly the configuration pinned here.  The test
captures the first :class:`~repro.config.OptimizeConfig` /
:class:`~repro.config.AnalysisConfig` that reaches the library and
aborts the run right there, so even the full-size driver defaults cost
only one circuit trace.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.pipeline import NoiseAnalysisPipeline
from repro.cli import BENCH_SUITES, main
from repro.optimize.problem import OptimizationProblem


class _Captured(BaseException):
    """Aborts a run once its config is known (job runners catch only Exception)."""

    def __init__(self, config) -> None:
        super().__init__()
        self.config = config


def _capture(monkeypatch, cls) -> None:
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        raise _Captured(self.config)

    monkeypatch.setattr(cls, "__init__", init)


def _first_config(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    _capture(monkeypatch, OptimizationProblem)
    _capture(monkeypatch, NoiseAnalysisPipeline)
    with pytest.raises(_Captured) as captured:
        main(argv)
    return dataclasses.asdict(captured.value.config)


ANALYSIS = dict(
    word_length=12,
    horizon=8,
    bins=32,
    methods=None,
    mc_samples=20_000,
    seed=0,
    mc_workers=None,
    enclosure_tol=1e-12,
    mc_fallback=True,
    oracle_samples=256,
    oracle_precision_bits=128,
)

OPTIMIZE = dict(
    strategy="greedy",
    method="aa",
    snr_floor_db=60.0,
    margin_db=1.0,
    confidence=None,
    cost_table="lut4",
    engine="incremental",
    horizon=6,
    bins=16,
    max_word_length=28,
    min_fractional_bits=0,
    quantization="round",
    overflow="saturate",
    mc_workers=1,
    engine_fallback=True,
    partitions=None,
    outer_iterations=3,
)

#: argv -> the first config it hands the library.  Drivers report their
#: first job's config: analysis jobs derive a per-circuit seed from 0,
#: bench_optimize starts with the (ia, uniform) cell, bench_scale with
#: the first point's decomposed solve.
PINNED = {
    "analyze": (["analyze"], {**ANALYSIS, "seed": 1046662790}),
    "optimize": (["optimize", "fir4"], OPTIMIZE),
    "pareto": (
        ["pareto", "fir4"],
        {**OPTIMIZE, "snr_floor_db": 65.0, "engine": "batched", "mc_workers": None},
    ),
    "bench-analysis": (
        ["bench", "analysis"],
        {**ANALYSIS, "mc_samples": 50_000, "seed": 1046662790},
    ),
    "bench-optimize": (["bench", "optimize"], {**OPTIMIZE, "method": "ia", "strategy": "uniform"}),
    "bench-pareto": (
        ["bench", "pareto"],
        {**OPTIMIZE, "method": "ia", "engine": "batched", "snr_floor_db": 65.0},
    ),
    "bench-scale": (
        ["bench", "scale"],
        {
            **OPTIMIZE,
            "strategy": "decomposed",
            "method": "ia",
            "margin_db": 0.0,
            "horizon": 8,
            "bins": 32,
        },
    ),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_empty_argv_builds_the_pinned_config(command, monkeypatch, tmp_path):
    argv, expected = PINNED[command]
    assert _first_config(monkeypatch, tmp_path, argv) == expected


@pytest.mark.parametrize("suite", BENCH_SUITES)
def test_bench_help_exits_zero(suite, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["bench", suite, "--", "--help"])
    assert exited.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "optimize", "--", "--anneal-iterations", "50"],
        ["bench", "optimize", "--", "--strategy", "greedy"],
        ["bench", "pareto", "--", "--anneal-iterations", "50"],
    ],
)
def test_retired_driver_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {argv[3]}" in capsys.readouterr().err
