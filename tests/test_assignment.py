"""Tests for repro.noisemodel.assignment: constructors, queries, coverage.

Also the derivation records: every whole-design walk answered from a
design's recorded delta (``changed_formats``, ``ensure_range_coverage``,
``key()``) must equal the full walk, and a greedy search must take the
full walk only when it moves to another lineage.
"""

from __future__ import annotations

import pickle
import random

import pytest

import repro.noisemodel.assignment as assignment_module
from repro.benchmarks.circuits import get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.config import OptimizeConfig
from repro.dfg.builder import DFGBuilder
from repro.dfg.range_analysis import infer_ranges
from repro.errors import NoiseModelError
from repro.fixedpoint.format import FixedPointFormat, QuantizationMode
from repro.intervals.interval import Interval
from repro.noisemodel.assignment import (
    WordLengthAssignment,
    changed_formats,
    ensure_range_coverage,
)
from repro.optimize import OptimizationProblem
from repro.optimize.strategies import GreedyBitStealingOptimizer


def small_graph():
    builder = DFGBuilder("small")
    x = builder.input("x")
    y = x * builder.const(0.5) + x
    builder.output(y, name="y")
    return builder.build()


def full_ranges(graph):
    return infer_ranges(graph, {"x": Interval(-1.0, 1.0)}).ranges


class TestUniform:
    def test_covers_every_non_output_node(self):
        graph = small_graph()
        assignment = WordLengthAssignment.uniform(graph, 10, full_ranges(graph))
        expected = {n.name for n in graph if n.op.value != "output"}
        assert set(assignment.formats) == expected
        assert all(fmt.word_length == 10 for fmt in assignment.formats.values())

    def test_integer_bits_follow_ranges(self):
        graph = small_graph()
        ranges = full_ranges(graph)
        assignment = WordLengthAssignment.uniform(graph, 12, ranges)
        for name, fmt in assignment.formats.items():
            assert fmt.min_value <= ranges[name].lo
            assert fmt.fractional_bits == 12 - fmt.integer_bits

    def test_missing_ranges_raise_naming_the_nodes(self):
        graph = small_graph()
        ranges = full_ranges(graph)
        victim = next(iter(ranges))
        ranges = {k: v for k, v in ranges.items() if k != victim}
        with pytest.raises(NoiseModelError, match=victim):
            WordLengthAssignment.uniform(graph, 10, ranges)

    def test_word_length_too_small_for_range(self):
        graph = small_graph()
        ranges = {name: Interval(-200.0, 200.0) for name in graph.names()}
        with pytest.raises(NoiseModelError, match="integer bits"):
            WordLengthAssignment.uniform(graph, 4, ranges)

    def test_mode_coercion_from_strings(self):
        graph = small_graph()
        assignment = WordLengthAssignment.uniform(
            graph, 8, full_ranges(graph), quantization="truncate", overflow="wrap"
        )
        assert assignment.quantization is QuantizationMode.TRUNCATE
        assert assignment.overflow.value == "wrap"


class TestFractionalBitConstructors:
    def test_round_trip_through_from_fractional_bits(self):
        graph = small_graph()
        ranges = full_ranges(graph)
        original = WordLengthAssignment.uniform(graph, 11, ranges)
        rebuilt = WordLengthAssignment.from_fractional_bits(
            graph, original.fractional_bits(), ranges
        )
        assert rebuilt.fractional_bits() == original.fractional_bits()
        assert rebuilt.word_lengths() == original.word_lengths()

    def test_from_fractional_bits_requires_ranges(self):
        graph = small_graph()
        with pytest.raises(NoiseModelError, match="no range"):
            WordLengthAssignment.from_fractional_bits(graph, {"ghost": 4}, {})

    def test_with_fractional_bits_replaces_one_node_only(self):
        graph = small_graph()
        ranges = full_ranges(graph)
        original = WordLengthAssignment.uniform(graph, 10, ranges)
        node = next(iter(original.formats))
        updated = original.with_fractional_bits(node, 3)
        assert updated.format_of(node).fractional_bits == 3
        # every other node untouched, original untouched
        for other in original.formats:
            if other != node:
                assert updated.format_of(other) == original.format_of(other)
        original_fmt = original.format_of(node)
        assert original_fmt.fractional_bits == 10 - original_fmt.integer_bits

    def test_with_fractional_bits_rejects_negative(self):
        graph = small_graph()
        assignment = WordLengthAssignment.uniform(graph, 10, full_ranges(graph))
        node = next(iter(assignment.formats))
        with pytest.raises(NoiseModelError, match=">= 0"):
            assignment.with_fractional_bits(node, -1)


class TestQueries:
    def test_total_and_max_bits(self):
        graph = small_graph()
        assignment = WordLengthAssignment.uniform(graph, 9, full_ranges(graph))
        assert assignment.total_bits() == 9 * len(assignment)
        assert assignment.max_word_length() == 9
        assert WordLengthAssignment().total_bits() == 0
        assert WordLengthAssignment().max_word_length() == 0

    def test_format_of_unknown_node_raises(self):
        assignment = WordLengthAssignment()
        with pytest.raises(NoiseModelError, match="no fixed-point format"):
            assignment.format_of("nope")

    def test_formats_are_read_only(self):
        graph = small_graph()
        assignment = WordLengthAssignment.uniform(graph, 8, full_ranges(graph))
        node = next(iter(assignment.formats))
        with pytest.raises(TypeError):
            assignment.formats[node] = assignment.formats[node].with_fractional_bits(0)
        with pytest.raises(AttributeError):
            assignment.quantization = QuantizationMode.TRUNCATE
        derived = assignment.with_formats({node: assignment.formats[node].with_fractional_bits(0)})
        assert derived.format_of(node).fractional_bits == 0
        assert assignment.format_of(node).fractional_bits != 0


class TestEnsureRangeCoverage:
    def test_noop_returns_same_object(self):
        graph = small_graph()
        ranges = full_ranges(graph)
        assignment = WordLengthAssignment.uniform(graph, 10, ranges)
        assert ensure_range_coverage(assignment, ranges) is assignment

    def test_widens_format_that_clips_its_range(self):
        # sQ1.3 tops out at 0.875, but the node's range reaches 1.0.
        assignment = WordLengthAssignment(formats={"n": FixedPointFormat(1, 3)})
        widened = ensure_range_coverage(assignment, {"n": Interval(0.0, 1.0)})
        assert widened.format_of("n").integer_bits == 2
        assert widened.format_of("n").fractional_bits == 3

    def test_gives_up_after_max_extra_bits(self):
        assignment = WordLengthAssignment(formats={"n": FixedPointFormat(1, 3)})
        with pytest.raises(NoiseModelError, match="saturation-free"):
            ensure_range_coverage(assignment, {"n": Interval(0.0, 1000.0)})

    def test_ignores_nodes_without_ranges(self):
        assignment = WordLengthAssignment(formats={"n": FixedPointFormat(1, 3)})
        assert ensure_range_coverage(assignment, {}) is assignment


class TestDerivationRecords:
    def test_pickle_and_doc_carry_formats_only(self):
        graph = small_graph()
        ranges = full_ranges(graph)
        design = WordLengthAssignment.uniform(graph, 8, ranges).with_fractional_bits("x", 3)
        restored = pickle.loads(pickle.dumps(design))
        assert restored == design and restored.key() == design.key()
        assert restored._lineage == () and design._lineage != ()
        assert WordLengthAssignment.from_doc(design.to_doc())._lineage == ()

    def test_equality_is_format_by_format(self):
        graph = small_graph()
        design = WordLengthAssignment.uniform(graph, 8, full_ranges(graph))
        fmt = design.format_of("x")
        twin = design.with_fractional_bits("x", 1).with_fractional_bits("x", fmt.fractional_bits)
        assert twin == design and twin.key() == design.key()
        assert twin != design.with_fractional_bits("x", 1)
        with pytest.raises(TypeError):
            hash(design)


def walk_problem(circuit):
    config = OptimizeConfig(snr_floor_db=45.0, method="ia", margin_db=0.0, horizon=4, bins=8)
    return OptimizationProblem.from_circuit(circuit, 45.0, config=config)


def derive(rng, problem, base):
    """One random derivation of ``base``: a shave, a multi-node change or a coverage pass."""
    kind = rng.random()
    if kind < 0.4:
        return base.with_fractional_bits(rng.choice(problem.tunable), rng.randint(0, 14))
    if kind < 0.8:
        changes = {}
        for node in rng.sample(problem.tunable, min(len(problem.tunable), rng.randint(1, 4))):
            fmt = base.format_of(node)
            if rng.random() < 0.3 and fmt.integer_bits > 1:
                # Clips the node's range: a later coverage pass must widen it back.
                fmt = fmt.with_integer_bits(fmt.integer_bits - 1)
            changes[node] = fmt.with_fractional_bits(rng.randint(0, 14))
        return base.with_formats(changes)
    return ensure_range_coverage(base, problem.ranges)


def twin_of(design):
    """The same design built from scratch: no derivation record."""
    return WordLengthAssignment(dict(design.formats), design.quantization, design.overflow)


def assert_delta_equals_full_diff(new, old, related):
    delta = changed_formats(new, old)
    full = assignment_module._diff_formats(new.formats, old.formats)
    assert set(delta) == set(full)
    assert len(delta) == len(full)
    assert (assignment_module._delta(new, old) is not None) == related


@pytest.mark.parametrize(
    "source", ["random-0", "random-1", "random-2", "fir4", "iir_biquad", "sigmoid_neuron"]
)
def test_delta_walks_equal_full_walks(source, random_circuit_factory):
    """Seeded random derivation walks: deltas, keys and evaluations match from-scratch twins."""
    name, _, seed = source.partition("-")
    circuit = random_circuit_factory(int(seed)) if name == "random" else get_circuit(name)
    problem = walk_problem(circuit)
    fresh = walk_problem(circuit)
    rng = random.Random(source)
    designs = [problem.uniform(problem.min_word_length + 6)]
    parent = [None]
    unrelated = problem.uniform(problem.min_word_length + 7)
    for _ in range(40):
        base_index = rng.randrange(max(0, len(designs) - 3), len(designs))
        base = designs[base_index]
        if rng.random() < 0.5:
            base.key()  # a cached key makes the children patch it
        design = derive(rng, problem, base)
        if design is base:
            continue
        designs.append(design)
        parent.append(base_index)
        index = len(designs) - 1
        grandparent = parent[base_index]
        assert_delta_equals_full_diff(design, base, related=True)
        assert_delta_equals_full_diff(base, design, related=False)
        if grandparent is not None:
            assert_delta_equals_full_diff(design, designs[grandparent], related=True)
        for sibling in (j for j in range(index) if parent[j] == base_index):
            assert_delta_equals_full_diff(design, designs[sibling], related=True)
        assert_delta_equals_full_diff(design, unrelated, related=False)
        assert_delta_equals_full_diff(design, twin_of(base), related=False)

        twin = twin_of(design)
        assert design.key() == twin.key()
        covered = ensure_range_coverage(design, problem.ranges)
        assert covered == ensure_range_coverage(twin, problem.ranges)
        assert covered.key() == ensure_range_coverage(twin, problem.ranges).key()
        ours, theirs = problem.evaluate(design), fresh.evaluate(twin)
        assert ours.cost == theirs.cost
        assert ours.noise_power == theirs.noise_power
        assert ours.snr_db == theirs.snr_db
    assert len(designs) > 30


def test_greedy_walks_whole_designs_only_between_lineages(monkeypatch):
    """The counter form of O(changed) bookkeeping, on the 158-node FIR cascade.

    A search derives every candidate from its current design, so a full
    diff or a full coverage scan is due only for a design derived from
    nothing: a rung of the uniform ladder or a descent start.  Three
    consumers diff each design against their own last one (the cost
    ledger, the engine's sources and its committed state), so each lineage
    switch costs at most three full diffs.  The from-scratch walks this
    replaced ran 2,314 diffs and 593 scans here.
    """
    counts = dict.fromkeys(("underived", "diffs", "scans"), 0)

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        WordLengthAssignment, "__init__", counted("underived", WordLengthAssignment.__init__)
    )
    monkeypatch.setattr(
        assignment_module, "_diff_formats", counted("diffs", assignment_module._diff_formats)
    )
    monkeypatch.setattr(
        assignment_module, "_widened_all", counted("scans", assignment_module._widened_all)
    )
    config = OptimizeConfig(snr_floor_db=60.0, method="ia", margin_db=0.0, horizon=8, bins=32)
    circuit = generate_circuit("fir_cascade:taps=8,samples=12")
    problem = OptimizationProblem.from_circuit(circuit, 60.0, config=config)
    result = GreedyBitStealingOptimizer().optimize(problem)
    assert result.feasible
    assert problem.analyzer_calls == 581
    # Every underived design but the first switches lineage once when
    # evaluated; each of the two descents switches once when it starts.
    switches = counts["underived"] - 1 + 2
    assert counts["scans"] <= counts["underived"]
    assert counts["diffs"] <= 3 * switches
