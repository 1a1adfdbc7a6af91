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
from repro.errors import DFGError
from repro.intervals.interval import Interval
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


def test_rescoped_view_owns_only_its_floor_margin_config_and_log():
    """A view rebinds exactly four attributes; everything else is the parent's object.

    A per-problem mutable attribute added later fails here instead of
    being silently shared between a problem and its views.
    """
    problem = _batched_problem()
    problem.analysis_log = []
    problem.evaluate(problem.uniform(12))  # warm the shared state first
    view = problem.rescoped(45.0, margin_db=2.0)
    owned = {"config", "snr_floor_db", "margin_db", "analysis_log"}
    assert set(vars(view)) == set(vars(problem))
    rebound = {name for name in vars(view) if vars(view)[name] is not vars(problem)[name]}
    assert rebound == owned
    assert view._state is problem._state
    assert view.config == problem.config.replace(snr_floor_db=45.0, margin_db=2.0)
    assert (view.snr_floor_db, view.margin_db, view.analysis_log) == (45.0, 2.0, None)


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


def test_every_view_shares_one_degradation_log(monkeypatch):
    """Views log into one list; a broken batched engine raises from each and logs nothing."""

    def broken(self, *args, **kwargs):
        raise DFGError("synthetic batched-compile failure")

    monkeypatch.setattr(batched_module.BatchedAnalyzer, "__init__", broken)
    problem = _batched_problem()
    views = [problem, problem.rescoped(50.0), problem.rescoped(45.0)]
    for view in views:
        with pytest.raises(DFGError, match="synthetic"):
            view.batched_engine()
    assert problem.degradations == []
    assert all(view.degradations is problem.degradations for view in views)


def _circuit_data(problem):
    return (
        problem.tunable,
        dict(problem.input_ranges),
        dict(problem.ranges),
        dict(problem.integer_bits),
    )


def test_a_view_cannot_change_the_shared_circuit_data():
    """``tunable`` is a tuple and the range maps are read-only mappings."""
    problem = _batched_problem()
    view = problem.rescoped(45.0)
    before = _circuit_data(problem)
    node, source = problem.tunable[0], next(iter(problem.input_ranges))
    with pytest.raises(AttributeError):
        view.tunable.append("extra")
    with pytest.raises(TypeError):
        view.tunable[0] = "extra"
    for mapping, key, value in (
        (view.input_ranges, source, Interval(-9.0, 9.0)),
        (view.ranges, node, Interval(-9.0, 9.0)),
        (view.integer_bits, node, 99),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value
        with pytest.raises(TypeError):
            del mapping[key]
        with pytest.raises(AttributeError):
            mapping.update({key: value})
    assert view.input_ranges is problem.input_ranges and view.ranges is problem.ranges
    assert _circuit_data(problem) == before


def test_sharded_monte_carlo_pickles_the_read_only_ranges():
    """Two shards on two workers ship ``input_ranges`` to worker processes.

    A shard batch that fails falls back to a serial rerun with a logged
    degradation, so the log must stay empty.
    """
    snrs = []
    for workers in (1, 2):
        config = OptimizeConfig(method="ia", mc_workers=workers)
        problem = OptimizationProblem.from_circuit(get_circuit("fir4"), 55.0, config=config)
        snrs.append(problem.monte_carlo_snr(problem.uniform(12), samples=5_000, seed=3))
        assert problem.degradations == []
    assert snrs[0] == snrs[1] and snrs[0] > 0.0
