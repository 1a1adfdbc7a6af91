"""Equivalence and cone-of-influence properties of the incremental engine."""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.analysis.incremental import IncrementalAnalyzer
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.dfg.range_analysis import infer_ranges
from repro.fixedpoint.format import FixedPointFormat
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer
from repro.noisemodel.assignment import (
    WordLengthAssignment,
    changed_formats,
    ensure_range_coverage,
)

HORIZON = 5


def _setup(circuit_name: str):
    circuit = get_circuit(circuit_name)
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    baseline = ensure_range_coverage(
        WordLengthAssignment.uniform(circuit.graph, 12, ranges), ranges
    )
    return circuit, ranges, baseline


def _perturb(baseline, ranges, rng, nodes_changed):
    assignment = baseline
    nodes = sorted(baseline.formats)
    for node in rng.sample(nodes, min(nodes_changed, len(nodes))):
        frac = assignment.format_of(node).fractional_bits
        assignment = assignment.with_fractional_bits(
            node, max(0, frac + rng.choice((-3, -2, -1, 1)))
        )
    return ensure_range_coverage(assignment, ranges)


@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
@pytest.mark.parametrize("method", ANALYSIS_METHODS)
def test_incremental_equals_full_on_random_perturbations(circuit_name, method):
    """Single- and multi-node perturbations match a from-scratch analysis."""
    circuit, ranges, baseline = _setup(circuit_name)
    rng = random.Random(f"{circuit_name}/{method}")
    engine = IncrementalAnalyzer(
        circuit.graph, baseline, circuit.input_ranges, horizon=HORIZON
    )
    for trial in range(8):
        assignment = _perturb(baseline, ranges, rng, 1 if trial % 2 == 0 else rng.choice((2, 3)))
        got = engine.analyze(
            assignment, method, output=circuit.output, commit=bool(trial % 2)
        )
        want = DatapathNoiseAnalyzer(
            circuit.graph, assignment, circuit.input_ranges, horizon=HORIZON
        ).analyze(method, output=circuit.output)
        assert got.mean == want.mean
        assert got.variance == want.variance
        assert got.noise_power == want.noise_power
        assert got.bounds.lo == want.bounds.lo
        assert got.bounds.hi == want.bounds.hi
        assert got.source_count == want.source_count


@pytest.mark.parametrize("method", ANALYSIS_METHODS)
def test_noise_power_fast_path_matches_report(method):
    circuit, ranges, baseline = _setup("iir_biquad")
    engine = IncrementalAnalyzer(
        circuit.graph, baseline, circuit.input_ranges, horizon=HORIZON
    )
    rng = random.Random(method)
    for trial in range(4):
        assignment = _perturb(baseline, ranges, rng, 1)
        power = engine.noise_power(assignment, method, output=circuit.output)
        report = engine.analyze(assignment, method, output=circuit.output)
        assert power == report.noise_power


def _true_downstream(engine, bases):
    """Reference forward reachability computed with plain BFS."""
    analyzer = engine.analyzer
    successors = {name: [] for name in analyzer.graph.names()}
    for node in analyzer.graph:
        for operand in node.inputs:
            successors[operand].append(node.name)
    roots = []
    for base in bases:
        if engine.analyzer.unrolled is None:
            roots.append(base)
        else:
            roots.extend(
                inst
                for inst in engine.analyzer.unrolled.instances.get(base, [])
                if base not in engine.analyzer.unrolled.delay_bases
            )
    seen = set(roots)
    queue = deque(roots)
    while queue:
        for consumer in successors[queue.popleft()]:
            if consumer not in seen:
                seen.add(consumer)
                queue.append(consumer)
    return seen


@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
def test_recomputation_never_leaves_the_cone(circuit_name):
    """Property: only nodes downstream of a perturbation are recomputed."""
    circuit, ranges, baseline = _setup(circuit_name)
    engine = IncrementalAnalyzer(
        circuit.graph, baseline, circuit.input_ranges, horizon=HORIZON
    )
    engine.analyze(baseline, "ia", output=circuit.output)
    rng = random.Random(circuit_name)
    current = baseline
    for trial in range(10):
        count = 1 if trial % 3 else 2
        candidate = _perturb(current, ranges, rng, count)
        changed = {
            node
            for node in set(candidate.formats) | set(current.formats)
            if candidate.formats.get(node) != current.formats.get(node)
        }
        engine.analyze(candidate, "ia", output=circuit.output, commit=True)
        recomputed = set(engine.stats.last_recomputed)
        allowed = _true_downstream(engine, changed)
        outside = recomputed - allowed
        assert not outside, f"recomputed outside the cone: {sorted(outside)}"
        current = candidate


def test_off_path_perturbation_recomputes_nothing():
    """A change that cannot reach the analyzed output has an empty cone."""
    circuit, ranges, baseline = _setup("fft_butterfly")
    # x1 = a - b * twiddle; add1 feeds only output x0.
    engine = IncrementalAnalyzer(
        circuit.graph, baseline, circuit.input_ranges, horizon=HORIZON
    )
    engine.analyze(baseline, "pna", output="x1")
    add_node = next(n for n in baseline.formats if n.startswith("add"))
    shaved = baseline.with_fractional_bits(
        add_node, baseline.format_of(add_node).fractional_bits - 1
    )
    before = engine.stats.nodes_recomputed
    report = engine.analyze(shaved, "pna", output="x1", commit=True)
    assert engine.stats.nodes_recomputed == before
    assert engine.stats.last_recomputed == ()
    want = DatapathNoiseAnalyzer(
        circuit.graph, shaved, circuit.input_ranges, horizon=HORIZON
    ).analyze("pna", output="x1")
    assert report.noise_power == want.noise_power


def test_overlay_probe_leaves_committed_state_untouched():
    """A non-committing probe must not disturb later analyses.

    Its overlay holds exactly the nodes it re-propagated, and the
    committed errors keep their keys and value objects: a probe neither
    copies nor writes the committed state, so it costs O(cone).
    """
    circuit, ranges, baseline = _setup("poly3")
    for method in ("aa", "ia"):
        engine = IncrementalAnalyzer(
            circuit.graph, baseline, circuit.input_ranges, horizon=HORIZON
        )
        reference = engine.analyze(baseline, method, output=circuit.output)
        state = engine._states[(method, engine.analyzer._resolve_output(circuit.output))]
        committed = dict(state.errors)
        smaller = False
        rng = random.Random("overlay")
        for _ in range(5):
            candidate = _perturb(baseline, ranges, rng, 1)
            engine.analyze(candidate, method, output=circuit.output, commit=False)
            overlay = engine._pending_overlay[2]
            assert engine._pending_overlay[1] is candidate
            assert sorted(overlay) == sorted(engine.stats.last_recomputed)
            smaller |= len(overlay) < len(committed)
            assert state.errors.keys() == committed.keys()
            assert all(state.errors[name] is error for name, error in committed.items())
        assert smaller
        again = engine.analyze(baseline, method, output=circuit.output)
        assert again.noise_power == reference.noise_power
        assert again.bounds.lo == reference.bounds.lo
        assert again.bounds.hi == reference.bounds.hi


def test_diff_detects_removed_keys_at_equal_size():
    """A same-size key swap must report both the added and removed node."""
    fmt = FixedPointFormat(2, 6)
    only_a = WordLengthAssignment({"a": fmt})
    assert changed_formats(WordLengthAssignment({"b": fmt}), only_a) == ["b", "a"]
    assert changed_formats(WordLengthAssignment({"a": fmt}), only_a) == []
    assert changed_formats(WordLengthAssignment(), only_a) == ["a"]


@pytest.mark.parametrize("method", ANALYSIS_METHODS)
def test_incremental_equals_full_on_generated_graphs(method, random_circuit_factory):
    """Engine equivalence fuzzed over generated graphs, not just the library.

    The generated circuits cover every operator (including the nonlinear
    sqrt/exp/log/abs/min/max/mux family), so the cone re-propagation is
    exercised through every error rule.
    """
    for offset in range(6):
        circuit = random_circuit_factory(1000 + offset)
        ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
        baseline = ensure_range_coverage(
            WordLengthAssignment.uniform(circuit.graph, 14, ranges), ranges
        )
        engine = IncrementalAnalyzer(
            circuit.graph, baseline, circuit.input_ranges, horizon=HORIZON
        )
        rng = random.Random(f"gen/{method}/{offset}")
        for trial in range(4):
            assignment = baseline
            nodes = sorted(baseline.formats)
            for node in rng.sample(nodes, min(2, len(nodes))):
                frac = assignment.format_of(node).fractional_bits
                assignment = assignment.with_fractional_bits(
                    node, max(0, frac + rng.choice((-2, -1, 1)))
                )
            assignment = ensure_range_coverage(assignment, ranges)
            got = engine.analyze(
                assignment, method, output=circuit.output, commit=bool(trial % 2)
            )
            want = DatapathNoiseAnalyzer(
                circuit.graph, assignment, circuit.input_ranges, horizon=HORIZON
            ).analyze(method, output=circuit.output)
            assert got.noise_power == want.noise_power
            assert got.bounds.lo == want.bounds.lo
            assert got.bounds.hi == want.bounds.hi


def test_mode_change_is_rejected():
    circuit, ranges, baseline = _setup("quadratic")
    engine = IncrementalAnalyzer(
        circuit.graph, baseline, circuit.input_ranges, horizon=HORIZON
    )
    from repro.errors import NoiseModelError
    from repro.fixedpoint.format import QuantizationMode

    truncated = WordLengthAssignment(
        dict(baseline.formats),
        quantization=QuantizationMode.TRUNCATE,
        overflow=baseline.overflow,
    )
    with pytest.raises(NoiseModelError, match="quantization/overflow"):
        engine.analyze(truncated, "ia", output=circuit.output)
