"""The priced-frontier memo: ``price_moves`` sends the engine only new lanes.

:meth:`OptimizationProblem.price_moves` memoizes every lane it prices in
``_SearchState.priced``, keyed on the design's ``key()`` and the move, and
shared with every rescoped view.  These tests count the engine's work by
wrapping :meth:`BatchedAnalyzer.price_moves`: repeats and subsets cost
nothing, supersets send only their new moves, views reuse the base
problem's lanes and a failed batch stores none.  The memo's premise —
a lane depends only on its design and its move — is checked on the
engine directly, and a sweep gate holds whole Pareto sweeps with the memo
to the same sweeps with it cleared before every call, with ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.batched as batched_module
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.config import OptimizeConfig
from repro.errors import NoiseModelError, OptimizationError
from repro.optimize import OptimizationProblem
from repro.optimize.pareto import pareto_front

HORIZON = 4
BINS = 8
FLOORS = (45.0, 55.0, 65.0)


def make_problem(circuit_name, method="aa", confidence=None):
    config = OptimizeConfig(
        method=method,
        confidence=confidence,
        engine="batched",
        margin_db=1.0,
        horizon=HORIZON,
        bins=BINS,
    )
    return OptimizationProblem.from_circuit(get_circuit(circuit_name), 55.0, config=config)


def shaves(assignment, nodes, bits=1):
    """``bits``-bit shaves of every node in ``nodes`` that has the bits to lose."""
    moves = []
    for node in nodes:
        frac = assignment.format_of(node).fractional_bits
        if frac >= bits:
            moves.append((node, frac - bits))
    return moves


@pytest.fixture
def engine_calls(monkeypatch):
    """The ``moves`` of every :meth:`BatchedAnalyzer.price_moves` call, in order."""
    calls = []
    real = batched_module.BatchedAnalyzer.price_moves

    def counting(self, assignment, moves, *args, **kwargs):
        calls.append(list(moves))
        return real(self, assignment, moves, *args, **kwargs)

    monkeypatch.setattr(batched_module.BatchedAnalyzer, "price_moves", counting)
    return calls


@pytest.mark.parametrize("method", ["ia", "aa"])
class TestMemo:
    def test_repeat_call_does_no_engine_work(self, engine_calls, method):
        problem = make_problem("fir4", method)
        design = problem.evaluate(problem.uniform(14)).assignment
        moves = shaves(design, problem.tunable)
        first = problem.price_moves(design, moves)
        second = problem.price_moves(design, moves)
        assert engine_calls == [moves]
        assert second.dtype == np.float64 and np.array_equal(first, second)

    def test_subset_is_free_and_superset_sends_only_new_moves(self, engine_calls, method):
        problem = make_problem("iir_biquad", method)
        design = problem.evaluate(problem.uniform(14)).assignment
        moves = shaves(design, problem.tunable)
        half = moves[::2]
        first = problem.price_moves(design, half)
        subset = problem.price_moves(design, half[::-1][:3])
        assert engine_calls == [half]
        assert list(subset) == list(first[::-1][:3])
        full = problem.price_moves(design, moves)
        assert engine_calls == [half, [m for m in moves if m not in half]]
        # Every lane equals the lane a memo-free problem prices in one batch.
        fresh = make_problem("iir_biquad", method)
        fresh.evaluate(fresh.uniform(14))
        assert list(full) == list(fresh.price_moves(design, moves))

    def test_new_design_is_priced_anew(self, engine_calls, method):
        problem = make_problem("fir4", method)
        design = problem.evaluate(problem.uniform(14)).assignment
        other = problem.evaluate(problem.uniform(13)).assignment
        moves = [(node, 5) for node in problem.tunable[:3]]
        problem.price_moves(design, moves)
        problem.price_moves(other, moves)
        assert engine_calls == [moves, moves]
        assert set(problem._state.priced) == {design.key(), other.key()}

    def test_rescoped_view_reuses_base_entries(self, engine_calls, method):
        problem = make_problem("matmul2", method)
        design = problem.evaluate(problem.uniform(14)).assignment
        moves = shaves(design, problem.tunable)
        base = problem.price_moves(design, moves)
        view = problem.rescoped(45.0)
        assert list(view.price_moves(design, moves)) == list(base)
        assert list(problem.rescoped(65.0).price_moves(design, moves[1:])) == list(base[1:])
        assert engine_calls == [moves]

    def test_duplicate_moves_are_priced_once(self, engine_calls, method):
        problem = make_problem("fir4", method)
        design = problem.evaluate(problem.uniform(14)).assignment
        moves = shaves(design, problem.tunable[:3])
        prices = problem.price_moves(design, moves + moves[:1])
        assert engine_calls == [moves]
        assert prices[-1] == prices[0]

    def test_failed_batch_stores_no_lane(self, monkeypatch, engine_calls, method):
        problem = make_problem("iir_biquad", method)
        design = problem.evaluate(problem.uniform(14)).assignment
        moves = shaves(design, problem.tunable)
        engine = problem.batched_engine()
        seen = []

        def failing(real):
            # Fail partway through the batch, inside a probe's cone.
            def fail_third(*args, **kwargs):
                seen.append(True)
                if len(seen) == 3:
                    raise NoiseModelError("synthetic mid-batch failure")
                return real(*args, **kwargs)

            return fail_third

        with monkeypatch.context() as patch:
            rules = engine._engine._rules_of(method)
            for name, rule in list(rules.items()):
                patch.setitem(rules, name, failing(rule))
            with pytest.raises(NoiseModelError, match="synthetic"):
                problem.price_moves(design, moves)
        assert seen and problem._state.priced == {} and problem.degradations == []
        problem.price_moves(design, moves)
        assert engine_calls == [moves, moves]
        assert len(problem._state.priced[design.key()]) == len(moves)


@pytest.mark.parametrize("method", ["ia", "aa"])
def test_unknown_node_raises_without_degrading(method):
    """A move naming a node without a format raises before any lane is priced."""
    problem = make_problem("fir4", method)
    design = problem.evaluate(problem.uniform(14)).assignment
    with pytest.raises(OptimizationError, match="nope"):
        problem.price_moves(design, [("nope", 3)])
    assert problem.degradations == []
    assert problem._state.batched is None and problem._state.priced == {}
    # Rejected before the memo: a batch it spoils prices and stores nothing.
    moves = shaves(design, problem.tunable[:2])
    problem.price_moves(design, moves)
    with pytest.raises(OptimizationError, match="nope"):
        problem.price_moves(design, [*moves, ("nope", 3)])
    assert problem.degradations == []
    assert set(problem._state.priced[design.key()]) == set(moves)


@pytest.mark.parametrize("method", ["ia", "aa"])
@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
def test_lane_priced_alone_equals_lane_in_full_batch(circuit_name, method):
    """The memo's premise: a lane depends only on its design and its move."""
    problem = make_problem(circuit_name, method)
    engine = problem.batched_engine()
    for word_length in (10, 12, 14):
        design = problem.evaluate(problem.uniform(word_length)).assignment
        for bits in (1, 2):
            moves = shaves(design, problem.tunable, bits)
            batch = engine.price_moves(design, moves, method, output=problem.output)
            for lane in reversed(range(len(moves))):
                alone = engine.price_moves(design, [moves[lane]], method, output=problem.output)
                assert alone[0] == batch[lane], (word_length, bits, moves[lane])


# --------------------------------------------------------------------- #
# sweep equivalence gate
# --------------------------------------------------------------------- #
#: ``(method, confidence)`` pairs the sweep gate covers.
SWEEP_METHODS = (("ia", None), ("aa", None), ("pna", 0.999))
SWEEP_CIRCUITS = ("fir4", "iir_biquad", "matmul2")


def sweep_record(problem):
    """Everything a Pareto sweep decides: per-floor costs, SNRs, designs, trails."""
    front = pareto_front(problem, FLOORS, strategy="greedy")
    return [
        (
            result.snr_floor_db,
            result.cost,
            result.snr_db,
            result.feasible,
            result.assignment.to_doc() if result.assignment is not None else None,
            [record.to_dict() for record in result.iterations],
        )
        for result in front.results
    ]


def memo_free_sweep(monkeypatch, problem):
    """:func:`sweep_record` with the memo cleared before every ``price_moves`` call."""
    real = OptimizationProblem.price_moves

    def clearing(self, *args, **kwargs):
        self._state.priced.clear()
        return real(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(OptimizationProblem, "price_moves", clearing)
        return sweep_record(problem)


class _MovesOnlyMemo(dict):
    """A mutated memo that files every design's lanes under one entry."""

    def get(self, key, default=None):
        return super().get(None, default)

    def setdefault(self, key, default=None):
        return super().setdefault(None, default)

    def __getitem__(self, key):
        return super().__getitem__(None)

    def __setitem__(self, key, value):
        super().__setitem__(None, value)

    def __contains__(self, key):
        return super().__contains__(None)


@pytest.mark.parametrize("method, confidence", SWEEP_METHODS)
@pytest.mark.parametrize("circuit_name", SWEEP_CIRCUITS)
def test_memo_sweep_equals_memo_free_sweep(
    monkeypatch, engine_calls, circuit_name, method, confidence
):
    reference = memo_free_sweep(monkeypatch, make_problem(circuit_name, method, confidence))
    memo_free_calls = len(engine_calls)
    problem = make_problem(circuit_name, method, confidence)
    assert sweep_record(problem) == reference
    assert problem.fallback_probes > 0 and problem.degradations == []
    # The memo saved engine work: fewer calls, every priced lane stored once.
    assert len(engine_calls) - memo_free_calls < memo_free_calls
    stored = sum(len(lanes) for lanes in problem._state.priced.values())
    assert stored == sum(len(moves) for moves in engine_calls[memo_free_calls:])


def test_sweep_gate_catches_a_memo_keyed_on_moves_only(monkeypatch):
    reference = memo_free_sweep(monkeypatch, make_problem("fir4", "aa"))
    problem = make_problem("fir4", "aa")
    problem._state.priced = _MovesOnlyMemo()
    assert sweep_record(problem) != reference
