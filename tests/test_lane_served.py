"""Lane-served evaluations and the deferred commit of the incremental engine.

:meth:`OptimizationProblem.evaluate` takes a design's noise power from
the priced-frontier memo (``_SearchState.priced``) when the design is one
priced move away from a priced design, and analyzes it only otherwise;
:meth:`OptimizationProblem.notify_accepted` records the accepted design,
and the next use of the incremental engine commits it.  These tests
replay every design whole batched Pareto sweeps evaluated through a
from-scratch analyzer with ``==`` (and check that a lane served one ulp
off fails that replay), pin what the lookup refuses to serve, bound what
a probe after a deferred commit re-propagates, and pin the engine work of
two searches that never price lanes.
"""

from __future__ import annotations

import math

import pytest

from conftest import reference_noise
from repro.analysis.incremental import IncrementalAnalyzer
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.config import OptimizeConfig
from repro.dfg.builder import DFGBuilder
from repro.fixedpoint.format import FixedPointFormat
from repro.noisemodel.assignment import changed_formats
from repro.optimize import OptimizationProblem, get_optimizer
from repro.optimize.pareto import pareto_front

HORIZON = 4
BINS = 8
FLOORS = (45.0, 55.0, 65.0)


def make_problem(circuit, method="aa", confidence=None, floor=55.0, input_ranges=None):
    config = OptimizeConfig(
        method=method,
        confidence=confidence,
        engine="batched",
        margin_db=1.0,
        horizon=HORIZON,
        bins=BINS,
    )
    if isinstance(circuit, str):
        circuit = get_circuit(circuit)
    return OptimizationProblem.from_circuit(circuit, floor, input_ranges, config=config)


@pytest.fixture
def analyses(monkeypatch):
    """The designs :meth:`OptimizationProblem._analyze` ran on, in order."""
    seen = []
    real = OptimizationProblem._analyze

    def counting(self, assignment):
        seen.append(assignment)
        return real(self, assignment)

    monkeypatch.setattr(OptimizationProblem, "_analyze", counting)
    return seen


def logged_sweep(monkeypatch, problem):
    """A greedy Pareto sweep whose views all append to ``problem.analysis_log``."""
    problem.analysis_log = []
    real = OptimizationProblem.rescoped

    def sharing(self, *args, **kwargs):
        view = real(self, *args, **kwargs)
        view.analysis_log = self.analysis_log
        return view

    with monkeypatch.context() as patch:
        patch.setattr(OptimizationProblem, "rescoped", sharing)
        return pareto_front(problem, FLOORS, strategy="greedy")


def assert_replay_matches_reference(problem):
    """Every logged design's evaluation ``==`` a from-scratch analysis."""
    for assignment in problem.analysis_log:
        evaluation = problem.evaluate(assignment)
        assert evaluation.noise_power == reference_noise(problem, assignment), assignment.key()


# --------------------------------------------------------------------- #
# exactness of whole sweeps
# --------------------------------------------------------------------- #
SWEEP_METHODS = (("ia", None), ("aa", None), ("taylor", None), ("pna", 0.999))


@pytest.mark.parametrize(
    "method, confidence", SWEEP_METHODS, ids=[f"{m}@{c}" for m, c in SWEEP_METHODS]
)
@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
def test_sweep_evaluations_equal_a_fresh_analysis(
    monkeypatch, analyses, circuit_name, method, confidence
):
    problem = make_problem(circuit_name, method, confidence)
    front = logged_sweep(monkeypatch, problem)
    assert front.is_monotone()
    assert problem.engine == "batched" and problem.degradations == []
    assert len(problem.analysis_log) == problem.analyzer_calls
    # Most evaluations are served from lanes, not analyzed.
    assert len(analyses) < len(problem.analysis_log) / 2
    assert_replay_matches_reference(problem)


def test_replay_catches_a_lane_served_one_ulp_off(monkeypatch, analyses):
    real = OptimizationProblem._lane

    def nudged(self, assignment):
        lane = real(self, assignment)
        return None if lane is None else math.nextafter(lane, math.inf)

    monkeypatch.setattr(OptimizationProblem, "_lane", nudged)
    problem = make_problem("fir4", "aa")
    logged_sweep(monkeypatch, problem)
    assert len(analyses) < len(problem.analysis_log)
    with pytest.raises(AssertionError):
        assert_replay_matches_reference(problem)


# --------------------------------------------------------------------- #
# the lookup guard
# --------------------------------------------------------------------- #
def priced_design(problem, word_length=14):
    """A design with every one-bit shave priced, and those moves."""
    design = problem.evaluate(problem.uniform(word_length)).assignment
    moves = []
    for node in problem.tunable:
        frac = design.format_of(node).fractional_bits
        if frac >= 1:
            moves.append((node, frac - 1))
    problem.price_moves(design, moves)
    return design, moves


def assert_analyzed(problem, analyses, child):
    before = len(analyses)
    evaluation = problem.evaluate(child)
    assert len(analyses) == before + 1
    assert evaluation.noise_power == reference_noise(problem, evaluation.assignment)
    return evaluation


@pytest.mark.parametrize("method", ["ia", "aa"])
class TestLookupGuard:
    def test_the_priced_move_is_served(self, analyses, method):
        problem = make_problem("fir4", method)
        design, moves = priced_design(problem)
        for move in moves:
            calls = problem.analyzer_calls
            evaluation = problem.evaluate(design.with_fractional_bits(*move))
            lane = problem._state.priced[design.key()][move]
            assert evaluation.noise_power == lane
            assert evaluation.noise_power == reference_noise(problem, evaluation.assignment)
            # Served evaluations still count as analyses.
            assert problem.analyzer_calls == calls + 1
        assert len(analyses) == 1  # only the uniform design

    def test_other_integer_bits_are_analyzed(self, analyses, method):
        problem = make_problem("fir4", method)
        design, moves = priced_design(problem)
        node, frac = moves[0]
        fmt = design.format_of(node)
        child = design.with_formats(
            {node: FixedPointFormat(fmt.integer_bits + 1, frac, fmt.signed)}
        )
        assert_analyzed(problem, analyses, child)

    def test_other_signedness_is_analyzed(self, analyses, method):
        problem = make_problem("rms_normalize", method)
        design, moves = priced_design(problem)
        node, frac = next((node, frac) for node, frac in moves if problem.ranges[node].lo >= 0.0)
        fmt = design.format_of(node)
        child = design.with_formats({node: FixedPointFormat(fmt.integer_bits, frac, False)})
        assert_analyzed(problem, analyses, child)

    def test_child_of_an_unpriced_design_is_analyzed(self, analyses, method):
        problem = make_problem("fir4", method)
        priced_design(problem)
        other = problem.evaluate(problem.uniform(13)).assignment
        node = problem.tunable[0]
        frac = other.format_of(node).fractional_bits
        assert_analyzed(problem, analyses, other.with_fractional_bits(node, frac - 1))

    def test_two_node_child_is_analyzed(self, analyses, method):
        problem = make_problem("fir4", method)
        design, moves = priced_design(problem)
        (a, fa), (b, fb) = moves[:2]
        both = {a: design.format_of(a).with_fractional_bits(fa)}
        both[b] = design.format_of(b).with_fractional_bits(fb)
        assert_analyzed(problem, analyses, design.with_formats(both))
        # A grandchild two priced moves away is not a one-move child either.
        assert_analyzed(
            problem, analyses, design.with_fractional_bits(b, fb - 1).with_fractional_bits(a, fa)
        )

    def test_a_widened_move_is_served_at_its_widened_format(self, analyses, method):
        """The lane prices the coverage-widened move, so that design is served."""
        builder = DFGBuilder("edge")
        x, w = builder.input("x"), builder.input("w")
        builder.output(x * w + w, name="y")
        # x ends just under 1.0: one integer bit covers it at 10 fractional
        # bits, but a shave to 9 lowers the format's maximum below 0.999.
        ranges = {"x": (-1.0, 0.999), "w": (-0.5, 0.5)}
        problem = make_problem(builder.build(), method, input_ranges=ranges)
        design = problem.evaluate(problem.uniform(11)).assignment
        assert design.format_of("x") == FixedPointFormat(1, 10, True)
        problem.price_moves(design, [("x", 9)])
        evaluation = problem.evaluate(design.with_fractional_bits("x", 9))
        assert evaluation.assignment.format_of("x") == FixedPointFormat(2, 9, True)
        assert len(analyses) == 1
        assert evaluation.noise_power == problem._state.priced[design.key()][("x", 9)]
        assert evaluation.noise_power == reference_noise(problem, evaluation.assignment)


# --------------------------------------------------------------------- #
# the deferred commit
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("circuit_name", ["fir4", "fft_butterfly", "iir_biquad"])
def test_probe_after_an_accept_pays_its_cone_and_the_accepted_move(monkeypatch, circuit_name):
    """The first probed batch after an accepted move re-propagates no stale cone.

    ``ia`` and ``taylor`` price their lanes by probing the shared engine,
    and a batched descent's evaluations are served from those lanes, so
    the engine would never see the accepted design if nothing committed
    it; every probe would then re-pay the whole drift since the last
    commit.  The first batch after an accept pays the accepted move's
    cones once and then one cone per probed lane.
    """
    accepted = []  # designs in the order the search accepted them
    armed = []
    checked = []
    probed = []
    real_notify = OptimizationProblem.notify_accepted
    real_price_moves = OptimizationProblem.price_moves
    real_probe_moves = IncrementalAnalyzer.probe_moves

    def notify(self, assignment):
        if accepted:
            armed[:] = [changed_formats(assignment, accepted[-1])]
        accepted.append(assignment)
        real_notify(self, assignment)

    def probe_moves(self, assignment, moves, *args, **kwargs):
        probed.extend(node for node, fmt in moves if fmt is not None)
        return real_probe_moves(self, assignment, moves, *args, **kwargs)

    def price_moves(self, assignment, moves):
        engine = self._state.incremental
        before = 0 if engine is None else engine.stats.nodes_recomputed
        probed.clear()
        prices = real_price_moves(self, assignment, moves)
        if armed and probed:
            changes = armed.pop()
            engine = self._state.incremental
            target = engine.analyzer._resolve_output(self.output)
            allowed = sum(len(engine.cone_of(node, target)) for node in (*changes, *probed))
            assert engine.stats.nodes_recomputed - before <= allowed, changes
            checked.append(changes)
        return prices

    monkeypatch.setattr(OptimizationProblem, "notify_accepted", notify)
    monkeypatch.setattr(OptimizationProblem, "price_moves", price_moves)
    monkeypatch.setattr(IncrementalAnalyzer, "probe_moves", probe_moves)
    for method in ("ia", "taylor"):
        accepted.clear()
        armed.clear()
        checked.clear()
        problem = make_problem(circuit_name, method, floor=50.0)
        result = get_optimizer("greedy").optimize(problem)
        assert result.feasible and problem.engine == "batched"
        assert problem.fallback_probes > 0
        assert len(checked) >= 3, method


#: ``(circuit, method, confidence, analyses, nodes recomputed)`` of two
#: greedy searches that never price lanes (the perfbench ``greedy-fir``
#: and ``pna-mlp`` workloads); deferring the commit must not move them.
#: The pna row is read with the Chernoff quantile bound (454 / 7,499 with
#: the histogram quantile it replaced).
UNBATCHED_SEARCHES = (
    ("fir_cascade:taps=8,samples=12", "ia", None, 581, 11893),
    ("mlp_layer:inputs=6,neurons=3", "pna", 0.999, 458, 7515),
)


@pytest.mark.parametrize(
    "spec, method, confidence, calls, recomputed",
    UNBATCHED_SEARCHES,
    ids=[spec.split(":")[0] for spec, *_ in UNBATCHED_SEARCHES],
)
def test_incremental_greedy_engine_work_is_unchanged(spec, method, confidence, calls, recomputed):
    config = OptimizeConfig(method=method, confidence=confidence, snr_floor_db=60.0, margin_db=0.0)
    problem = OptimizationProblem.from_circuit(generate_circuit(spec), 60.0, config=config)
    result = get_optimizer("greedy", headroom=2, max_iterations=400).optimize(problem)
    assert result.feasible
    assert problem.analyzer_calls == calls
    assert problem._state.incremental.stats.nodes_recomputed == recomputed
