"""Rescoped views share one search state with the problem they came from.

:meth:`OptimizationProblem.rescoped` returns a view under another SNR
floor.  The view owns only its floor, margin, config and analysis log;
the engines, gains, pricing neighbourhood, evaluation caches, counters
and degradation log are one object shared by the problem and all its
views, so no view can fork them.
"""

from __future__ import annotations

import pytest

import repro.analysis.batched as batched_module
import repro.optimize.problem as problem_module
from repro.benchmarks.circuits import get_circuit
from repro.config import OptimizeConfig
from repro.errors import DFGError, NoiseModelError
from repro.optimize import OptimizationProblem


def _batched_problem() -> OptimizationProblem:
    return OptimizationProblem.from_circuit(
        get_circuit("fir4"), 55.0, config=OptimizeConfig(method="ia", engine="batched")
    )


def test_sibling_views_share_gains_engine_and_neighbourhood(monkeypatch):
    calls = []
    real = problem_module.transfer_gains

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(problem_module, "transfer_gains", counting)
    problem = _batched_problem()
    views = [problem, problem.rescoped(50.0), problem.rescoped(45.0)]
    node = problem.tunable[0]
    assert len({view.noise_gain(node) for view in views}) == 1
    assert len(calls) == 1
    assert views[1].batched_engine() is views[2].batched_engine() is problem.batched_engine()
    assert views[2].pricing_neighbourhood() is views[1].pricing_neighbourhood()


def test_counters_and_evaluation_indices_are_shared():
    problem = _batched_problem()
    problem.analysis_log = []
    first, second = problem.rescoped(50.0), problem.rescoped(45.0, margin_db=2.0)
    assert (second.snr_floor_db, second.margin_db) == (45.0, 2.0)
    assert (second.config.snr_floor_db, second.config.margin_db) == (45.0, 2.0)
    assert problem.config.snr_floor_db == 55.0 and first.analysis_log is None
    a = first.evaluate(first.uniform(12))
    assert problem.analyzer_calls == second.analyzer_calls == 1
    b = second.evaluate(second.uniform(13))
    assert (a.index, b.index) == (1, 2)
    again = problem.evaluate(problem.uniform(12))  # a cache hit for every view
    assert again.index == a.index
    assert problem.analyzer_calls == 2 and first.evaluate_cache_hits == 1
    assert problem.analysis_log == []  # each view owns its log


def test_one_batched_failure_degrades_every_view_once(monkeypatch):
    def broken(self, *args, **kwargs):
        raise DFGError("synthetic batched-compile failure")

    monkeypatch.setattr(batched_module.BatchedAnalyzer, "__init__", broken)
    problem = _batched_problem()
    views = [problem, problem.rescoped(50.0), problem.rescoped(45.0)]
    for view in views[1:]:
        with pytest.raises(NoiseModelError):
            view.batched_engine()
    assert [event.stage for event in problem.degradations] == ["batched-compile"]
    assert all(view.engine == "incremental" for view in views)
    assert all(view.degradations is problem.degradations for view in views)
