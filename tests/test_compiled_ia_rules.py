"""The incremental engine's compiled ``ia`` rules equal the generic rule.

``IncrementalAnalyzer`` re-propagates ``ia`` errors through one compiled
closure per node (``_compile_ia_rule``) instead of
``DatapathNoiseAnalyzer._error_of``.  Every test here compares the two
with ``==`` *and* with ``math.copysign``, so a rule that reorders a fold
or drops a float-zero shortcut shows up even when it only flips the sign
of a zero endpoint.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.analysis.incremental import IncrementalAnalyzer, _compile_ia_rule
from repro.dfg.builder import DFGBuilder
from repro.dfg.node import OpType
from repro.dfg.range_analysis import infer_ranges
from repro.errors import DivisionByZeroIntervalError, DomainError
from repro.fixedpoint.format import QuantizationMode
from repro.intervals.interval import Interval
from repro.noisemodel.analyzer import DatapathNoiseAnalyzer
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage

HORIZON = 5

#: The ops ``_compile_ia_rule`` compiles; the rest keep the generic rule.
COMPILED_OPS = {
    OpType.INPUT,
    OpType.CONST,
    OpType.OUTPUT,
    OpType.NEG,
    OpType.ADD,
    OpType.SUB,
    OpType.MUL,
    OpType.SQUARE,
}

#: Operand errors the per-op sweep feeds every rule: the exact float zero
#: (no term) and intervals with both signs of zero at their endpoints.
OPERAND_ERRORS = (
    0.0,
    Interval(-0.0, 0.0),
    Interval(-0.0, -0.0),
    Interval(0.0, 0.0),
    Interval(-1e-3, 0.0),
    Interval(-0.0, 2e-3),
    Interval(-3e-4, 5e-4),
    Interval(1e-4, 7e-4),
)


def _bits(error):
    """``error`` as comparable floats that also tell the sign of a zero."""
    if isinstance(error, Interval):
        lo, hi = error.lo, error.hi
        return ("interval", lo, math.copysign(1.0, lo), hi, math.copysign(1.0, hi))
    return (type(error).__name__, error, math.copysign(1.0, error))


def _raised(excinfo):
    """What a test compares of a raised exception: type, message and node."""
    error = excinfo.value
    return type(error), str(error), getattr(error, "node", None)


def _every_op_graph():
    """One graph holding each compiled op, with zero-ended input ranges."""
    builder = DFGBuilder("every_op")
    x, y, z = builder.input("x"), builder.input("y"), builder.input("z")
    c = builder.const(0.3)
    terms = [-x, x + y, x - z, z - y, x * z, y * y, z * c, z.square(), x.square()]
    terms.append((y + 1.0).sqrt())  # a rare op: keeps the generic rule
    builder.output(builder.sum_of(terms), name="out")
    graph = builder.build()
    input_ranges = {"x": Interval(-1.5, 2.5), "y": Interval(0.0, 3.0), "z": Interval(-2.0, -0.0)}
    return graph, input_ranges


def _baseline(graph, input_ranges, word_length=14, quantization=QuantizationMode.ROUND):
    ranges = infer_ranges(graph, input_ranges).ranges
    return ensure_range_coverage(
        WordLengthAssignment.uniform(graph, word_length, ranges, quantization=quantization),
        ranges,
    )


@pytest.mark.parametrize("quantization", [QuantizationMode.ROUND, QuantizationMode.TRUNCATE])
def test_every_op_matches_the_generic_rule(quantization):
    """Each compiled op, each operand-error pair, with and without a source.

    The rules are compiled under a fully formatted design; the sweep then
    runs again after the sources are swapped for an unformatted design,
    so a rule that bound its source at compile time fails.
    """
    graph, input_ranges = _every_op_graph()
    formatted = _baseline(graph, input_ranges, quantization=quantization)
    engine = IncrementalAnalyzer(graph, formatted, input_ranges)
    analyzer = engine.analyzer
    rules = engine._rules_of("ia")
    values = engine._values["ia"]
    seen_ops = set()
    unformatted = WordLengthAssignment(
        {}, quantization=formatted.quantization, overflow=formatted.overflow
    )
    for assignment in (formatted, unformatted, formatted):
        engine._sync_sources(assignment)
        for name in analyzer.topo_order:
            node = graph.node(name)
            seen_ops.add(node.op)
            compiled = _compile_ia_rule(analyzer, name, node, values) is not None
            assert compiled == (node.op in COMPILED_OPS), node.op
            for operand_errors in itertools.product(OPERAND_ERRORS, repeat=len(node.inputs)):
                errors = dict(zip(node.inputs, operand_errors))
                want = analyzer._error_of("ia", name, node, values, errors, None)
                got = rules[name](errors)
                assert _bits(got) == _bits(want), (name, node.op, operand_errors)
    assert COMPILED_OPS < seen_ops


#: Unbounded operand errors (an overflowed error sum): times a zero value
#: endpoint each gives ``0 * inf``, which ``Interval.__mul__`` reads as 0.
UNBOUNDED_ERRORS = (
    Interval(-math.inf, math.inf),
    Interval(-math.inf, -1e-3),
    Interval(-0.0, math.inf),
    Interval(2e-3, math.inf),
)


def test_unbounded_operand_errors_read_like_the_generic_rule():
    """A compiled mul or square fed an unbounded error gives no NaN bound.

    The every-op graph's ``y`` and ``z`` have zero value endpoints, so
    their products with an infinite error endpoint are ``0 * inf``.
    """
    graph, input_ranges = _every_op_graph()
    baseline = _baseline(graph, input_ranges)
    engine = IncrementalAnalyzer(graph, baseline, input_ranges)
    analyzer = engine.analyzer
    rules = engine._rules_of("ia")
    values = engine._values["ia"]
    operands = OPERAND_ERRORS + UNBOUNDED_ERRORS
    checked = 0
    for name in analyzer.topo_order:
        node = graph.node(name)
        if node.op not in (OpType.MUL, OpType.SQUARE):
            continue
        for operand_errors in itertools.product(operands, repeat=len(node.inputs)):
            if not set(operand_errors) & set(UNBOUNDED_ERRORS):
                continue
            errors = dict(zip(node.inputs, operand_errors))
            want = analyzer._error_of("ia", name, node, values, errors, None)
            got = rules[name](errors)
            assert _bits(got) == _bits(want), (name, node.op, operand_errors)
            checked += 1
    assert checked > 0


def _overflowing_sum_graph():
    """40 inputs times 9.1e306, summed, times ``a`` in ``[0, 1]``.

    At 0 fractional bits each input's error is ``[-0.5, 0.5]``, so the
    scaled errors sum past the float range to ``[-inf, inf]``, which the
    product with ``a`` meets at ``a``'s zero endpoint.
    """
    builder = DFGBuilder("overflowing_sum")
    inputs = [builder.input(f"x{k}") for k in range(40)]
    a = builder.input("a")
    total = builder.sum_of([x * builder.const(9.1e306) for x in inputs])
    builder.output(total * a, name="out")
    input_ranges = {f"x{k}": Interval(-1e-3, 1e-3) for k in range(40)}
    input_ranges["a"] = Interval(0.0, 1.0)
    graph = builder.build()
    baseline = _baseline(graph, input_ranges, word_length=1022)
    shaved = baseline.with_formats(
        {x.node_name: baseline.format_of(x.node_name).with_fractional_bits(0) for x in inputs}
    )
    return graph, input_ranges, shaved


def test_an_overflowed_error_reads_unbounded_in_both_engines():
    graph, input_ranges, design = _overflowing_sum_graph()
    fresh = DatapathNoiseAnalyzer(graph, design, input_ranges).analyze("ia")
    engine = IncrementalAnalyzer(graph, design, input_ranges)
    for report in (engine.analyze(design, "ia"), engine.analyze(design, "ia", commit=False)):
        assert (report.bounds.lo, report.bounds.hi) == (-math.inf, math.inf)
        assert report.bounds == fresh.bounds and report.noise_power == fresh.noise_power


def _shaved(baseline, rng, nodes_changed):
    assignment = baseline
    for node in rng.sample(sorted(baseline.formats), nodes_changed):
        frac = assignment.format_of(node).fractional_bits
        assignment = assignment.with_fractional_bits(node, max(0, frac - rng.randint(1, 9)))
    return assignment


@pytest.mark.parametrize("seed", range(1000, 1012))
def test_generated_graphs_match_node_by_node(seed, random_circuit_factory):
    """Generated graphs (every operator) agree at every node.

    Each candidate is checked twice: every rule against the generic rule
    on the generic sweep's errors, and the engine's probe and committed
    errors against a from-scratch ``DatapathNoiseAnalyzer`` sweep.
    """
    circuit = random_circuit_factory(seed)
    graph, input_ranges = circuit.graph, circuit.input_ranges
    baseline = _baseline(graph, input_ranges)
    engine = IncrementalAnalyzer(graph, baseline, input_ranges, horizon=HORIZON)
    analyzer = engine.analyzer
    target = analyzer._resolve_output(circuit.output)
    engine.analyze(baseline, "ia", output=target)
    rules = engine._rules_of("ia")
    ancestors = engine.ancestors_of(target)
    rng = random.Random(f"compiled-ia/{seed}")
    for trial in range(6):
        candidate = _shaved(baseline, rng, rng.choice((1, 1, 2, 3)))
        fresh = DatapathNoiseAnalyzer(graph, candidate, input_ranges, horizon=HORIZON)
        try:
            _, want, _ = fresh._propagate("ia", target)
        except (DomainError, DivisionByZeroIntervalError):
            continue
        engine._sync_sources(candidate)
        for name in analyzer.topo_order:
            if name in ancestors:
                got = rules[name](want)
                assert _bits(got) == _bits(want[name]), (seed, trial, name)
        commit = trial % 2 == 1
        errors = engine._update(candidate, "ia", target, commit)
        for name in want:
            assert _bits(errors[name]) == _bits(want[name]), (seed, trial, name, commit)


def _domain_case(case):
    """A graph whose ``victim`` shaved to 0 fractional bits breaks a rule.

    ``div``: the divisor's error makes it straddle 0.  ``sqrt``/``log``:
    the operand's error crosses the domain bound.  Compiled mul/add rules
    feed the failing node.
    """
    builder = DFGBuilder(f"domain_{case}")
    x, y = builder.input("x"), builder.input("y")
    if case == "div":
        victim, wire = "y", (x * y + x) / y
    elif case == "sqrt":
        product = x * y
        victim, wire = product.node_name, product.sqrt()
    else:
        victim, wire = "x", (x + y * x).log()
    builder.output(wire, name="out")
    graph = builder.build()
    input_ranges = {"x": Interval(0.05, 1.0), "y": Interval(0.05, 1.0)}
    return graph, input_ranges, victim, wire.node_name


@pytest.mark.parametrize("case", ["div", "sqrt", "log"])
def test_domain_violations_raise_like_a_full_analysis(case):
    """A domain-violating candidate raises what a full sweep raises.

    A failing probe leaves the committed state as it was; a failing
    commit drops it, and the next analysis rebuilds it from scratch.
    """
    graph, input_ranges, victim, failing = _domain_case(case)
    baseline = _baseline(graph, input_ranges)
    bad = baseline.with_fractional_bits(victim, 0)
    with pytest.raises((DomainError, DivisionByZeroIntervalError)) as want:
        DatapathNoiseAnalyzer(graph, bad, input_ranges).analyze("ia")
    expected = _raised(want)
    if case != "div":  # a DomainError names its node; a zero divisor names none
        assert expected[2] == failing

    engine = IncrementalAnalyzer(graph, baseline, input_ranges)
    reference = engine.analyze(baseline, "ia")
    key = ("ia", engine.analyzer._resolve_output(None))
    state = engine._states[key]
    committed = dict(state.errors)

    with pytest.raises(type(want.value)) as probe:
        engine.noise_power(bad, "ia", commit=False)
    assert _raised(probe) == expected
    assert engine._states[key] is state
    assert state.errors.keys() == committed.keys()
    assert all(state.errors[name] is error for name, error in committed.items())

    with pytest.raises(type(want.value)) as commit:
        engine.analyze(bad, "ia", commit=True)
    assert _raised(commit) == expected
    assert key not in engine._states

    again = engine.analyze(baseline, "ia")
    assert _bits(again.bounds) == _bits(reference.bounds)
    assert again.noise_power == reference.noise_power
