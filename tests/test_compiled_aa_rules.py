"""The incremental engine's compiled ``aa`` rules equal the generic rule.

``IncrementalAnalyzer`` re-propagates ``aa`` (and ``pna``) errors through
one compiled closure per node (``_compile_aa_rule``) instead of
``DatapathNoiseAnalyzer._error_of``.  The compiled rules name each
linearization symbol after its node and site, where the generic rule
draws a fresh name from its context, so an error is compared as: its
center with ``==`` and the sign of a zero, every ``e_*`` source
coefficient with ``==`` by name, and every other coefficient with ``==``
as a multiset.  The graphs and domain cases are those of
``test_compiled_ia_rules.py``, plus one graph that reaches every branch
of the selection ops.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.analysis.incremental import IncrementalAnalyzer, _compile_aa_rule
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.dfg.builder import DFGBuilder
from repro.dfg.node import OpType
from repro.errors import DivisionByZeroIntervalError, DomainError, IntervalError
from repro.fixedpoint.format import QuantizationMode
from repro.intervals.affine import AffineForm
from repro.intervals.interval import Interval
from repro.noisemodel.analyzer import DatapathNoiseAnalyzer
from repro.noisemodel.assignment import WordLengthAssignment
from test_compiled_ia_rules import (
    HORIZON,
    _baseline,
    _domain_case,
    _every_op_graph,
    _shaved,
)


def _parts(error):
    """``error`` as comparable parts that ignore linearization-symbol names."""
    if isinstance(error, float):
        return ("float", error, math.copysign(1.0, error))
    center = error.center
    sources = {name: c for name, c in error.terms.items() if name.startswith("e_")}
    others = sorted(c for name, c in error.terms.items() if not name.startswith("e_"))
    return ("aa", center, math.copysign(1.0, center), sources, others)


def _raised(error):
    """Type, message and node of a raised exception.

    A zero-divisor message prints the divisor's form, whose terms are
    listed by symbol name; its linearization symbols are compared as a
    multiset of coefficients, like :func:`_parts` does.
    """
    message = str(error)
    if isinstance(error, DivisionByZeroIntervalError):
        head, _, body = message.partition("(")
        body, _, tail = body.rpartition(")")
        center, *terms = body.split(" ")
        sources = sorted(t for t in terms if "*e_" in t)
        others = sorted(t.partition("*")[0] for t in terms if "*e_" not in t)
        message = (head, center, sources, others, tail)
    return type(error), message, getattr(error, "node", None)


def _selection_graph():
    """Every op, with each abs/min/max/mux branch reachable.

    ``p`` is positive, ``n`` negative and ``w`` crosses zero, so each
    selection is decided either way by its value enclosures; an operand
    error that is wide enough leaves it undecided.
    """
    builder = DFGBuilder("every_branch")
    p, n, w, y = builder.input("p"), builder.input("n"), builder.input("w"), builder.input("y")
    c = builder.const(0.3)
    terms = [
        -w, p + w, p - n, w * n, w * c, w.square(), p / n, w / p, y.sqrt(), (p + y).sqrt(),
        p.exp(), w.exp(), p.log(), (y + 1.0).log(),
        abs(p), abs(n), abs(w),
        p.minimum(n), n.maximum(p), w.minimum(p), w.maximum(n), p.minimum(p), w.maximum(w),
        p.mux(w, n), n.mux(w, p), w.mux(p, n), w.mux(n, n),
    ]
    builder.output(builder.sum_of(terms), name="out")
    input_ranges = {
        "p": Interval(0.5, 1.0),
        "n": Interval(-1.0, -0.5),
        "w": Interval(-1.0, 1.0),
        "y": Interval(0.0, 3.0),
    }
    return builder.build(), input_ranges


def _operand_errors(context):
    """Operand errors: the float zero and forms that share the value symbols.

    Narrow forms keep every selection decided as its enclosures decide
    it; wide ones (radius 0.6 and more) flip them, cross the sqrt/log
    domains and make divisors straddle zero.  One form's terms cancel a
    product's exactly, and centers carry both signs of zero.
    """
    return (
        0.0,
        AffineForm(-0.0, {}, context),
        AffineForm(0.0, {"e_w": 1e-3}, context),
        AffineForm(-0.0, {"e_p": -2e-3, "p": 1e-4}, context),
        AffineForm(3e-4, {"e_n": 5e-4, "w": -1e-4, "n": 2e-4}, context),
        AffineForm(-0.25, {"e_w": 0.4, "w": 0.2}, context),
        AffineForm(0.5, {"e_p": 0.3, "y": -0.4}, context),
    )


@pytest.mark.parametrize("quantization", [QuantizationMode.ROUND, QuantizationMode.TRUNCATE])
@pytest.mark.parametrize("graph_of", [_every_op_graph, _selection_graph])
def test_every_op_matches_the_generic_rule(graph_of, quantization):
    """Each op, each operand-error combination, with and without a source.

    The rules are compiled under a fully formatted design; the sweep then
    runs again after the sources are swapped for an unformatted design,
    so a rule that bound its source at compile time fails.  A combination
    the generic rule rejects must raise the same error.
    """
    graph, input_ranges = graph_of()
    formatted = _baseline(graph, input_ranges, quantization=quantization)
    engine = IncrementalAnalyzer(graph, formatted, input_ranges)
    analyzer = engine.analyzer
    rules = engine._rules_of("aa")
    values, context = engine._values["aa"], engine._contexts["aa"]
    unformatted = WordLengthAssignment(
        {}, quantization=formatted.quantization, overflow=formatted.overflow
    )
    seen_ops, raised = set(), 0
    for assignment in (formatted, unformatted, formatted):
        engine._sync_sources(assignment)
        for name in analyzer.topo_order:
            node = graph.node(name)
            seen_ops.add(node.op)
            assert _compile_aa_rule(name, node, values, context, lambda _: None) is not None
            for combo in itertools.product(_operand_errors(context), repeat=len(node.inputs)):
                errors = dict(zip(node.inputs, combo))
                try:
                    want = analyzer._error_of("aa", name, node, values, errors, context)
                except (IntervalError, ZeroDivisionError) as exc:
                    raised += 1
                    with pytest.raises(type(exc)) as got:
                        rules[name](errors)
                    assert _raised(got.value) == _raised(exc), (name, combo)
                    continue
                got = rules[name](errors)
                assert _parts(got) == _parts(want), (name, node.op, combo)
    assert seen_ops >= {OpType.ADD, OpType.MUL, OpType.SQUARE}
    if graph_of is _selection_graph:
        assert set(OpType) - {OpType.DELAY} <= seen_ops and raised > 0


def _check_node_by_node(graph, input_ranges, output, seed, trials=6):
    """Every rule against the generic rule, and the engine's sweeps against a full one.

    The rules are fed the errors of a generic sweep over the engine's own
    value forms: a full sweep names its value forms' linearization
    symbols differently, and errors share symbols with value forms.
    """
    baseline = _baseline(graph, input_ranges)
    engine = IncrementalAnalyzer(graph, baseline, input_ranges, horizon=HORIZON)
    analyzer = engine.analyzer
    target = analyzer._resolve_output(output)
    engine.analyze(baseline, "aa", output=target)
    rules = engine._rules_of("aa")
    values, context = engine._values["aa"], engine._contexts["aa"]
    ancestors = engine.ancestors_of(target)
    rng = random.Random(f"compiled-aa/{seed}")
    checked = 0
    for trial in range(trials):
        candidate = _shaved(baseline, rng, rng.choice((1, 1, 2, 3)))
        fresh = DatapathNoiseAnalyzer(graph, candidate, input_ranges, horizon=HORIZON)
        try:
            _, want, _ = fresh._propagate("aa", target)
        except (DomainError, DivisionByZeroIntervalError):
            continue
        engine._sync_sources(candidate)
        generic = {}
        for name in analyzer.topo_order:
            if name in ancestors:
                node = analyzer.graph.node(name)
                generic[name] = analyzer._error_of("aa", name, node, values, generic, context)
                assert _parts(rules[name](generic)) == _parts(generic[name]), (seed, trial, name)
                checked += 1
        commit = trial % 2 == 1
        errors = engine._update(candidate, "aa", target, commit)
        for name in want:
            assert _parts(errors[name]) == _parts(want[name]), (seed, trial, name, commit)
    return checked


@pytest.mark.parametrize("seed", range(1000, 1012))
def test_generated_graphs_match_node_by_node(seed, random_circuit_factory):
    """Generated graphs (every operator) agree at every node.

    Each candidate is checked twice: every rule against the generic rule
    on the generic sweep's errors, and the engine's probe and committed
    errors against a from-scratch ``DatapathNoiseAnalyzer`` sweep.
    """
    circuit = random_circuit_factory(seed)
    _check_node_by_node(circuit.graph, circuit.input_ranges, circuit.output, seed)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_benchmark_circuits_match_node_by_node(name):
    circuit = get_circuit(name)
    assert _check_node_by_node(circuit.graph, circuit.input_ranges, circuit.output, name) > 0


def _aa_domain_case(case):
    """``test_compiled_ia_rules``'s domain cases, with AA-valid ``sqrt``/``log``.

    The ``ia`` cases take the root or log of an expression with a
    product, whose AA value form already leaves the domain; here the root
    or log of a sum breaks once the sum is shaved to 0 fractional bits.
    """
    if case == "div":
        return _domain_case(case)
    builder = DFGBuilder(f"domain_{case}_aa")
    x, y = builder.input("x"), builder.input("y")
    total = x + y
    wire = total.sqrt() if case == "sqrt" else total.log()
    builder.output(wire * x, name="out")
    input_ranges = {"x": Interval(0.05, 1.0), "y": Interval(0.05, 1.0)}
    return builder.build(), input_ranges, total.node_name, wire.node_name


@pytest.mark.parametrize("case", ["div", "sqrt", "log"])
def test_domain_violations_raise_like_a_full_analysis(case):
    """A domain-violating candidate raises what a full ``aa`` sweep raises.

    A failing probe leaves the committed state as it was; a failing
    commit drops it, and the next analysis rebuilds it from scratch.
    """
    graph, input_ranges, victim, failing = _aa_domain_case(case)
    baseline = _baseline(graph, input_ranges)
    bad = baseline.with_fractional_bits(victim, 0)
    with pytest.raises((DomainError, DivisionByZeroIntervalError)) as want:
        DatapathNoiseAnalyzer(graph, bad, input_ranges).analyze("aa")
    expected = _raised(want.value)
    if case != "div":  # a DomainError names its node; a zero divisor names none
        assert expected[2] == failing

    engine = IncrementalAnalyzer(graph, baseline, input_ranges)
    reference = engine.analyze(baseline, "aa")
    key = ("aa", engine.analyzer._resolve_output(None))
    state = engine._states[key]
    committed = dict(state.errors)

    with pytest.raises(type(want.value)) as probe:
        engine.noise_power(bad, "aa", commit=False)
    assert _raised(probe.value) == expected
    assert engine._states[key] is state
    assert all(state.errors[name] is error for name, error in committed.items())

    with pytest.raises(type(want.value)) as commit:
        engine.analyze(bad, "aa", commit=True)
    assert _raised(commit.value) == expected
    assert key not in engine._states

    again = engine.analyze(baseline, "aa")
    assert again.noise_power == reference.noise_power
    assert _parts(engine._states[key].errors[key[1]]) == _parts(committed[key[1]])
