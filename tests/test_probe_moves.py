"""``IncrementalAnalyzer.probe_moves``: one cone probe per single-node move.

``probe_moves`` commits a design and prices each ``(node, format)`` move
by swapping that node's quantization sources, re-propagating its cone
over the committed errors and swapping the sources back.  These tests
hold every lane to ``noise_power`` of the moved design with ``==`` on
the hand-written circuits and on generated graphs, for every method and
confidence reading; check that a call leaves the committed errors, the
synced design and the source table as it found them, also when a lane
raises mid-cone; and check that a hoisted constant's sources (listed once
per time step by the unroller) are restored exactly.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis.incremental import IncrementalAnalyzer
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.config import OptimizeConfig
from repro.dfg.builder import DFGBuilder
from repro.dfg.range_analysis import infer_ranges
from repro.fixedpoint.format import FixedPointFormat
from repro.errors import DivisionByZeroIntervalError, DomainError, NoiseModelError
from repro.intervals.interval import Interval
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer, propagation_algebra
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage, moved_format
from repro.optimize import OptimizationProblem

HORIZON = 4

#: ``(method, confidence)`` readings: mean-square power for every method,
#: the fractional confidence of the PDF methods, and every method's peak.
READINGS = (
    *((method, None) for method in ANALYSIS_METHODS),
    ("pna", 0.999),
    *((method, 1.0) for method in ANALYSIS_METHODS),
)


def _reading_id(reading):
    method, confidence = reading
    return method if confidence is None else f"{method}@{confidence}"


def _setup(circuit, seed, word_length=12):
    """An engine, a perturbed covered design and seeded moves (one with no format)."""
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    base = ensure_range_coverage(
        WordLengthAssignment.uniform(circuit.graph, word_length, ranges), ranges
    )
    rng = random.Random(seed)
    nodes = sorted(base.formats)
    design = base
    for node in rng.sample(nodes, min(2, len(nodes))):
        frac = design.format_of(node).fractional_bits
        design = design.with_fractional_bits(node, max(0, frac - rng.choice((1, 2))))
    design = ensure_range_coverage(design, ranges)
    moves = []
    for node in nodes:
        fmt = design.format_of(node)
        frac = fmt.fractional_bits + rng.choice((-3, -1, 1))
        moves.append((node, moved_format(node, fmt, frac, ranges)))
    moves.append((nodes[0], None))
    engine = IncrementalAnalyzer(circuit.graph, base, circuit.input_ranges, horizon=HORIZON)
    return engine, design, moves


def _expected(circuit, design, moves, method, confidence):
    """Each move priced by ``noise_power`` on a private engine; ``inf`` where it raises."""
    private = IncrementalAnalyzer(circuit.graph, design, circuit.input_ranges, horizon=HORIZON)
    prices = []
    for node, fmt in moves:
        try:
            if fmt is None:
                raise NoiseModelError("no format")
            prices.append(
                private.noise_power(
                    design.with_formats({node: fmt}),
                    method,
                    output=circuit.output,
                    commit=False,
                    confidence=confidence,
                )
            )
        except (NoiseModelError, DomainError, DivisionByZeroIntervalError):
            prices.append(math.inf)
    return prices


def _snapshot(engine, method, output):
    """The committed state of ``(method, output)``: errors by identity, synced design, sources."""
    target = engine.analyzer._resolve_output(output)
    state = engine._states.get((propagation_algebra(method), target))
    errors = None if state is None else (state, dict(state.errors))
    return errors, engine._synced, dict(engine.analyzer._sources_by_node)


def _assert_unchanged(engine, snapshot):
    errors, synced, sources = snapshot
    if errors is not None:
        state, committed = errors
        assert list(state.errors) == list(committed)
        assert all(state.errors[name] is value for name, value in committed.items())
    assert engine._synced is synced
    by_node = engine.analyzer._sources_by_node
    assert by_node.keys() == sources.keys()
    assert all(by_node[inst] is source for inst, source in sources.items())


def _check_lanes(circuit, seed, method, confidence):
    engine, design, moves = _setup(circuit, seed)
    output = circuit.output
    want = _expected(circuit, design, moves, method, confidence)
    got = engine.probe_moves(design, moves, method, output, confidence)
    assert got == want
    # Probing again from the committed design moves nothing it committed.
    snapshot = _snapshot(engine, method, output)
    before = engine.stats.nodes_recomputed
    assert engine.probe_moves(design, moves, method, output, confidence) == want
    _assert_unchanged(engine, snapshot)
    if snapshot[0] is not None:
        target = engine.analyzer._resolve_output(output)
        cones = [engine.cone_of(node, target) for node, fmt in moves if fmt is not None]
        assert engine.stats.last_recomputed == tuple(name for cone in cones for name in cone)
        assert engine.stats.nodes_recomputed - before == sum(map(len, cones))


@pytest.mark.parametrize("reading", READINGS, ids=_reading_id)
@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
def test_probe_moves_equal_noise_power_on_every_circuit(circuit_name, reading):
    method, confidence = reading
    _check_lanes(get_circuit(circuit_name), circuit_name, method, confidence)


@pytest.mark.parametrize("reading", READINGS, ids=_reading_id)
@pytest.mark.parametrize("seed", range(6))
def test_probe_moves_equal_noise_power_on_generated_graphs(random_circuit_factory, seed, reading):
    method, confidence = reading
    _check_lanes(random_circuit_factory(seed, max_ops=8), seed, method, confidence)


@pytest.mark.parametrize("failure", (DomainError, NoiseModelError))
@pytest.mark.parametrize("method", ("ia", "taylor"))
def test_a_lane_raising_mid_cone_leaves_the_sources_restored(monkeypatch, method, failure):
    """A domain failure prices its lane ``inf``; any other error propagates.

    Either way the raising lane's swapped sources are swapped back and the
    committed errors are untouched.
    """
    circuit = get_circuit("iir_biquad")
    engine, design, moves = _setup(circuit, "mid-cone")
    output = circuit.output
    want = _expected(circuit, design, moves, method, None)
    engine.noise_power(design, method, output=output, commit=True)
    snapshot = _snapshot(engine, method, output)
    target = engine.analyzer._resolve_output(output)
    lane = next(
        (node, fmt)
        for node, fmt in moves
        if fmt is not None and len(engine.cone_of(node, target)) > 1
    )
    node = lane[0]
    (inst, *_) = engine._instances_of(node)
    # The cone's last rule raises after the moved node's sources were swapped.
    last = engine.cone_of(node, target)[-1]
    rules = engine._rules_of(method)
    real_rule = rules[last]
    seen = []

    def failing_rule(errors):
        seen.append(engine.analyzer._sources_by_node[inst].fmt)
        raise failure("synthetic mid-cone failure")

    monkeypatch.setitem(rules, last, failing_rule)
    if failure is DomainError:
        assert math.isinf(engine.probe_moves(design, [lane, *moves], method, output)[0])
    else:
        with pytest.raises(NoiseModelError, match="synthetic"):
            engine.probe_moves(design, [lane, *moves], method, output)
    assert seen[0] == lane[1]
    _assert_unchanged(engine, snapshot)
    monkeypatch.setitem(rules, last, real_rule)
    assert engine.probe_moves(design, moves, method, output) == want


def test_hoisted_constant_sources_are_restored_exactly():
    """Every probe of ``iir_biquad`` restores its constants' single shared instance.

    The unroller lists a hoisted CONST's one instance once per time step;
    the engine keeps each instance once, so swapping a constant's sources
    and restoring them leaves the committed source in place, and later
    ``taylor`` and ``pna`` probes still equal a fresh analysis.
    """
    circuit = get_circuit("iir_biquad")
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    design = ensure_range_coverage(WordLengthAssignment.uniform(circuit.graph, 12, ranges), ranges)
    engine = IncrementalAnalyzer(circuit.graph, design, circuit.input_ranges, horizon=6)
    assert engine.analyzer.unrolled.instances["const1"] == ["const1@0"] * 6
    assert engine._instances_of("const1") == ["const1@0"]
    moves = []
    for node in sorted(design.formats):
        fmt = design.format_of(node)
        moves.append((node, moved_format(node, fmt, fmt.fractional_bits - 1, ranges)))
    engine.probe_moves(design, moves, "ia", circuit.output)

    def fresh(assignment):
        return DatapathNoiseAnalyzer(circuit.graph, assignment, circuit.input_ranges, horizon=6)

    def described(sources):
        return {
            inst: (source.error_interval, source.symbol, source.fmt)
            for inst, source in sources.items()
        }

    assert described(engine.analyzer._sources_by_node) == described(fresh(design)._sources_by_node)
    for method in ("taylor", "pna"):
        got = engine.probe_moves(design, moves, method, circuit.output)
        for (node, fmt), price in zip(moves, got):
            report = fresh(design.with_formats({node: fmt})).analyze(method, output=circuit.output)
            assert price == report.noise_power, (method, node)


@pytest.mark.parametrize("method", ("ia", "taylor"))
def test_a_baseline_that_leaves_a_domain_probes_whole_closures(method):
    """With no committed errors to build on, each lane propagates its whole closure.

    ``x`` at 0 fractional bits carries an error of +-0.5, so ``sqrt(x)``
    over ``x`` in [0.25, 4] leaves its domain and the design itself does
    not analyze.  Widening ``x`` fixes that lane; the others stay ``inf``.
    """
    builder = DFGBuilder("sqrt_of_coarse_input")
    x = builder.input("x")
    root = x.sqrt()
    builder.output(root, name="y")
    graph = builder.build()
    input_ranges = {"x": Interval(0.25, 4.0)}
    ranges = infer_ranges(graph, input_ranges).ranges
    design = ensure_range_coverage(WordLengthAssignment.uniform(graph, 12, ranges), ranges)
    design = ensure_range_coverage(design.with_fractional_bits("x", 0), ranges)

    def fresh(assignment):
        return DatapathNoiseAnalyzer(graph, assignment, input_ranges).analyze(method, output="y")

    with pytest.raises(DomainError):
        fresh(design)
    fine = moved_format("x", design.format_of("x"), 8, ranges)
    sqrt_fmt = design.format_of(root.node_name)
    moves = [
        ("x", fine),
        (root.node_name, moved_format(root.node_name, sqrt_fmt, 4, ranges)),
    ]
    engine = IncrementalAnalyzer(graph, design, input_ranges)
    got = engine.probe_moves(design, moves, method, "y")
    assert got[0] == fresh(design.with_formats({"x": fine})).noise_power
    assert math.isinf(got[1])
    closure = len(engine.ancestors_of(engine.analyzer._resolve_output("y")))
    assert engine.stats.nodes_recomputed == 2 * closure


@pytest.mark.parametrize("method,confidence", (("pna", 0.999), ("aa", 1.0)))
def test_an_error_radius_past_the_float_range_prices_inf(method, confidence):
    """A lane whose output error radius sums past the float range prices ``inf``.

    Forty inputs in [-1e-3, 1e-3] at 0 fractional bits each carry an error
    of +-0.5, which a gain of 9.1e306 turns into output coefficients whose
    sum (1.8e308) overflows, while every value enclosure stays finite.
    """
    count = 40
    builder = DFGBuilder("huge_gain_sum")
    inputs = builder.inputs([f"x{i}" for i in range(count)])
    gain = builder.const(9.1e306)
    builder.output(builder.sum_of([x * gain for x in inputs]), name="y")
    graph = builder.build()
    input_ranges = {f"x{i}": Interval(-1e-3, 1e-3) for i in range(count)}
    coarse = FixedPointFormat(1, 0)
    design = WordLengthAssignment(
        formats={**{f"x{i}": coarse for i in range(1, count)}, "x0": FixedPointFormat(1, 20)}
    )
    engine = IncrementalAnalyzer(graph, design, input_ranges)
    got = engine.probe_moves(design, [("x0", coarse)], method, "y", confidence)
    assert got == [math.inf]
    moved = design.with_formats({"x0": coarse})
    assert engine.noise_power(moved, method, "y", confidence=confidence) == math.inf


#: Every reading of the overflow test: mean-square power of each method,
#: pna's fractional confidence and AA's peak.
OVERFLOW_READINGS = (*((method, None) for method in ANALYSIS_METHODS), ("pna", 0.999), ("aa", 1.0))


def _huge_gain_product():
    """Forty +-1e-3 inputs times a 9.1e306 gain, summed, times ``z`` in [-1, 1]."""
    count = 40
    builder = DFGBuilder("huge_gain_product")
    inputs = builder.inputs([f"x{i}" for i in range(count)])
    z = builder.input("z")
    gain = builder.const(9.1e306)
    builder.output(builder.sum_of([x * gain for x in inputs]) * z, name="y")
    input_ranges = {f"x{i}": Interval(-1e-3, 1e-3) for i in range(count)}
    input_ranges["z"] = Interval(-1.0, 1.0)
    return builder.build(), input_ranges


def _overflowing_design(wide: WordLengthAssignment, z_format: FixedPointFormat):
    """``wide`` with every ``x`` at 0 fractional bits (an error of +-0.5 each)."""
    coarse = FixedPointFormat(1, 0)
    return wide.with_formats({**{f"x{i}": coarse for i in range(40)}, "z": z_format})


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("reading", OVERFLOW_READINGS, ids=_reading_id)
def test_an_overflowed_error_prices_inf_in_every_reading(reading):
    """An error past the float range prices ``inf``, never ``nan`` or an exception.

    Forty inputs in [-1e-3, 1e-3] at 0 fractional bits each carry an error
    of +-0.5; a gain of 9.1e306 and their sum overflow the error, and a
    product with the input ``z`` then meets ``inf - inf`` and ``0 * inf``:
    IA's enclosure is [-inf, inf] (no midpoint), Taylor's remainder a NaN
    bound, and pna's Chernoff read an ``inf`` coefficient.  Both a probe
    of ``z`` and the problem's evaluation of the moved design price
    ``inf``, as a lane that leaves a domain does.
    """
    method, confidence = reading
    graph, input_ranges = _huge_gain_product()
    config = OptimizeConfig(method=method, confidence=confidence, snr_floor_db=0.0)
    problem = OptimizationProblem(graph, input_ranges, config=config, output="y")
    design = _overflowing_design(problem.uniform(1100), FixedPointFormat(2, 4))
    shaved = FixedPointFormat(2, 3)
    engine = IncrementalAnalyzer(graph, design, input_ranges)
    assert engine.probe_moves(design, [("z", shaved)], method, "y", confidence) == [math.inf]
    evaluation = problem.evaluate(design.with_formats({"z": shaved}))
    assert evaluation.noise_power == math.inf and not evaluation.feasible


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_an_overflowed_error_reads_unbounded_in_every_pipeline_row():
    """A pipeline analysis of the overflowing graph finishes every analytic row.

    Taylor's product meets ``inf * 0`` twice: a degree-3 cross term whose
    other factor is an empty sum, and an interval endpoint product of a
    zero bound with an unbounded one.  Neither may turn into a NaN bound
    (a ``DomainError``); the row reads ``[-inf, inf]`` and ``inf`` like
    IA, AA and pna.
    """
    from repro.analysis import AnalysisConfig, NoiseAnalysisPipeline

    graph, input_ranges = _huge_gain_product()
    ranges = infer_ranges(graph, input_ranges).ranges
    design = _overflowing_design(
        WordLengthAssignment.uniform(graph, 1100, ranges), FixedPointFormat(2, 3)
    )
    methods = ("ia", "aa", "taylor", "pna")
    report = NoiseAnalysisPipeline(AnalysisConfig()).analyze(
        graph, design, method=methods, input_ranges=input_ranges, output="y"
    )
    rows = {m: (r.lower, r.upper, r.noise_power) for m, r in report.results.items()}
    assert rows == {m: (-math.inf, math.inf, math.inf) for m in methods}
