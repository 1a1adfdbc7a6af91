"""The nonlinear operator family across algebras, analyzers and unrolling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.montecarlo import monte_carlo_error
from repro.dfg.builder import DFGBuilder, Wire
from repro.dfg.evaluate import simulate, simulate_batch
from repro.dfg.node import OP_ARITY, Node, OpType
from repro.dfg.range_analysis import infer_ranges
from repro.errors import DomainError, NoiseModelError
from repro.intervals.affine import AffineContext
from repro.intervals.interval import Interval
from repro.intervals.taylor import TaylorModel
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage
from repro.noisemodel.gains import transfer_gains
from repro.optimize import HardwareCostModel

HORIZON = 5


def _analyzer_for(graph, input_ranges, word_length=12, horizon=HORIZON):
    ranges = infer_ranges(graph, input_ranges).ranges
    assignment = ensure_range_coverage(
        WordLengthAssignment.uniform(graph, word_length, ranges), ranges
    )
    return (
        DatapathNoiseAnalyzer(graph, assignment, input_ranges, horizon=horizon),
        assignment,
    )


class TestAlgebraUnaryOps:
    """Chebyshev linearizations enclose the true function pointwise."""

    @pytest.mark.parametrize("fname,lo,hi", [
        ("sqrt", 0.25, 2.0),
        ("sqrt", 0.0, 1.0),
        ("exp", -1.5, 1.0),
        ("log", 0.5, 3.0),
    ])
    def test_affine_and_taylor_enclose_samples(self, fname, lo, hi):
        context = AffineContext()
        affine = getattr(context.variable("x", lo, hi), fname)()
        taylor = getattr(TaylorModel.variable("x", lo, hi), fname)()
        reference = getattr(math, fname)
        enc_a, enc_t = affine.to_interval(), taylor.bound()
        for sample in np.linspace(lo, hi, 97):
            value = reference(float(sample))
            assert enc_a.lo - 1e-12 <= value <= enc_a.hi + 1e-12
            assert enc_t.lo - 1e-12 <= value <= enc_t.hi + 1e-12

    def test_abs_sign_cases(self):
        context = AffineContext()
        positive = context.variable("p", 0.5, 2.0)
        assert abs(positive).to_interval().almost_equal(Interval(0.5, 2.0))
        negative = context.variable("n", -2.0, -0.5)
        assert abs(negative).to_interval().almost_equal(Interval(0.5, 2.0))
        crossing = abs(context.variable("c", -1.0, 3.0)).to_interval()
        assert crossing.contains(Interval(0.0, 3.0))

    def test_min_max_keep_correlation(self):
        context = AffineContext()
        x = context.variable("x", -1.0, 1.0)
        # min(x, x) has no selection uncertainty at all.
        assert x.minimum(x).to_interval().almost_equal(Interval(-1.0, 1.0), tol=1e-12)
        low = context.variable("lo", 0.0, 1.0)
        high = context.variable("hi", 2.0, 3.0)
        assert low.minimum(high).to_interval().almost_equal(Interval(0.0, 1.0), tol=1e-12)
        assert low.maximum(high).to_interval().almost_equal(Interval(2.0, 3.0), tol=1e-12)

    def test_interval_minimum_maximum(self):
        a = Interval(-1.0, 2.0)
        b = Interval(0.5, 1.0)
        assert a.minimum(b) == Interval(-1.0, 1.0)
        assert a.maximum(b) == Interval(0.5, 2.0)


class TestDomainErrors:
    """sqrt/log domain violations raise DomainError naming the node."""

    def test_interval_domain_errors(self):
        with pytest.raises(DomainError):
            Interval(-0.5, 1.0).sqrt()
        with pytest.raises(DomainError):
            Interval(0.0, 1.0).log()

    @pytest.mark.parametrize("method", ANALYSIS_METHODS)
    @pytest.mark.parametrize("op", ["sqrt", "log"])
    def test_analyzer_names_the_offending_node(self, method, op):
        builder = DFGBuilder("domain")
        x = builder.input("x")
        wire = x.sqrt() if op == "sqrt" else x.log()
        builder.output(wire, name="out")
        graph = builder.build()
        node_name = wire.node_name
        analyzer = DatapathNoiseAnalyzer(
            graph,
            WordLengthAssignment({}),
            {"x": Interval(-1.0, 1.0)},
        )
        with pytest.raises(DomainError) as excinfo:
            analyzer.analyze(method)
        assert node_name in str(excinfo.value)
        assert excinfo.value.node == node_name

    def test_range_analysis_names_the_offending_node(self):
        builder = DFGBuilder("domain")
        wire = builder.input("x").sqrt()
        builder.output(wire, name="out")
        with pytest.raises(DomainError) as excinfo:
            infer_ranges(builder.build(), {"x": Interval(-1.0, 1.0)})
        assert wire.node_name in str(excinfo.value)

    def test_off_path_domain_violation_does_not_abort(self):
        """A sqrt that cannot reach the analyzed output is irrelevant."""
        builder = DFGBuilder("offpath")
        x = builder.input("x")
        builder.output(x.sqrt(), name="bad")
        builder.output(x + 1.0, name="good")
        graph = builder.build()
        analyzer, _ = _analyzer_for(graph, {"x": Interval(0.5, 1.0)})
        # 'good' is analyzable even though shaving precision to the point
        # where sqrt's operand enclosure crossed zero would poison 'bad'.
        report = analyzer.analyze("ia", output="good")
        assert report.bounds.width > 0.0


class TestUnsupportedOpMessages:
    """Every analyzer method reports an unsupported OpType by name."""

    @pytest.mark.parametrize("method", ANALYSIS_METHODS)
    def test_value_rule_message(self, method):
        builder = DFGBuilder("simple")
        builder.output(builder.input("x") + 1.0, name="out")
        analyzer, _ = _analyzer_for(builder.build(), {"x": Interval(-1.0, 1.0)})
        rogue = Node(name="d1", op=OpType.DELAY, inputs=("x",))
        context = AffineContext() if method == "aa" else None
        with pytest.raises(NoiseModelError, match="unsupported operation"):
            analyzer._value_of(method, "d1", rogue, {}, context)
        with pytest.raises(NoiseModelError, match="d1"):
            analyzer._value_of(method, "d1", rogue, {}, context)

    @pytest.mark.parametrize("method", ANALYSIS_METHODS)
    def test_error_rule_message(self, method):
        builder = DFGBuilder("simple")
        builder.output(builder.input("x") + 1.0, name="out")
        analyzer, _ = _analyzer_for(builder.build(), {"x": Interval(-1.0, 1.0)})
        rogue = Node(name="d1", op=OpType.DELAY, inputs=("x",))
        context = AffineContext() if method == "aa" else None
        with pytest.raises(NoiseModelError, match="unsupported operation.*d1"):
            analyzer._error_of(method, "d1", rogue, {}, {}, context)


def _sqrt_integrator() -> tuple:
    """y[n] = sqrt(x[n] + 0.5 * y[n-1] + 1.5): feedback through a SQRT."""
    builder = DFGBuilder("sqrt_integrator")
    x = builder.input("x")
    graph = builder.graph
    graph.add_delay(name="state")
    y = (x + Wire(builder, "state") * builder.const(0.5) + 1.5).sqrt()
    graph.connect_delay("state", y.node_name)
    builder.output(y, name="y")
    return builder.build(), {"x": Interval(-1.0, 1.0)}


def _exp_decay() -> tuple:
    """y[n] = 0.5 * exp(-|x[n] + 0.25 * y[n-1]|): ABS + EXP in feedback."""
    builder = DFGBuilder("exp_decay")
    x = builder.input("x")
    graph = builder.graph
    graph.add_delay(name="state")
    y = (-abs(x + Wire(builder, "state") * builder.const(0.25))).exp() * builder.const(0.5)
    graph.connect_delay("state", y.node_name)
    builder.output(y, name="y")
    return builder.build(), {"x": Interval(-1.0, 1.0)}


class TestUnrollDelayInteraction:
    """Sequential circuits with the new unary ops unroll and stay sound."""

    @pytest.mark.parametrize("factory", [_sqrt_integrator, _exp_decay])
    @pytest.mark.parametrize("method", ANALYSIS_METHODS)
    def test_unrolled_bounds_enclose_monte_carlo(self, factory, method):
        graph, input_ranges = factory()
        assert graph.is_sequential
        analyzer, assignment = _analyzer_for(graph, input_ranges)
        report = analyzer.analyze(method)
        mc = monte_carlo_error(
            graph, assignment, input_ranges, samples=4000, steps=HORIZON, rng=11
        )
        tol = 1e-9 * max(1.0, abs(report.bounds.lo), abs(report.bounds.hi))
        assert report.bounds.lo - tol <= mc.lower
        assert mc.upper <= report.bounds.hi + tol

    @pytest.mark.parametrize("factory", [_sqrt_integrator, _exp_decay])
    def test_unrolled_graph_replicates_unary_ops_per_step(self, factory):
        graph, input_ranges = factory()
        analyzer, _ = _analyzer_for(graph, input_ranges)
        unrolled = analyzer.unrolled
        assert unrolled is not None and unrolled.steps == HORIZON
        nonlinear = [
            n for n in graph if n.op in (OpType.SQRT, OpType.EXP, OpType.ABS)
        ]
        for node in nonlinear:
            assert len(unrolled.instances_of(node.name)) == HORIZON

    def test_time_stepped_simulation_matches_batch(self):
        graph, _ = _sqrt_integrator()
        series = np.linspace(-1.0, 1.0, HORIZON)
        scalar = simulate(graph, {"x": series}).output("y")[-1]
        batch = simulate_batch(graph, {"x": series[None, :]}, steps=HORIZON)["y"][0]
        assert scalar == pytest.approx(batch, rel=1e-12)


class TestSelectionAnalysis:
    """min/max/mux error rules stay O(e) or degrade soundly."""

    def test_decided_mux_forwards_branch_error_exactly(self):
        builder = DFGBuilder("decided")
        x = builder.input("x")
        y = builder.input("y")
        select = x.square() + 1.0  # strictly positive: always branch a
        builder.output(select.mux(x * builder.const(0.5), y), name="out")
        graph = builder.build()
        ranges = {"x": Interval(-1.0, 1.0), "y": Interval(-1.0, 1.0)}
        analyzer, assignment = _analyzer_for(graph, ranges)
        mc = monte_carlo_error(graph, assignment, ranges, samples=4000, rng=5)
        for method in ANALYSIS_METHODS:
            report = analyzer.analyze(method)
            assert report.bounds.lo - 1e-12 <= mc.lower
            assert mc.upper <= report.bounds.hi + 1e-12
            # Sign-decided select: no O(1) branch-swap residual leaks in.
            assert report.bounds.width < 0.01

    def test_crossing_mux_bounds_cover_branch_swaps(self):
        builder = DFGBuilder("crossing")
        x = builder.input("x")
        y = builder.input("y")
        builder.output(x.mux(y * builder.const(0.5), -y), name="out")
        graph = builder.build()
        ranges = {"x": Interval(-1.0, 1.0), "y": Interval(-1.0, 1.0)}
        analyzer, assignment = _analyzer_for(graph, ranges)
        mc = monte_carlo_error(graph, assignment, ranges, samples=30_000, rng=3)
        for method in ANALYSIS_METHODS:
            report = analyzer.analyze(method)
            tol = 1e-9 * max(1.0, abs(report.bounds.lo), abs(report.bounds.hi))
            assert report.bounds.lo - tol <= mc.lower
            assert mc.upper <= report.bounds.hi + tol


class TestCostAndGains:
    """New functional units are priced and differentiated."""

    def test_every_new_op_is_priced_positive(self):
        builder = DFGBuilder("priced")
        x = builder.input("x")
        y = builder.input("y")
        shifted = x + 1.5
        wires = {
            "sqrt": shifted.sqrt(),
            "exp": x.exp(),
            "log": shifted.log(),
            "abs": abs(x),
            "min": x.minimum(y),
            "max": x.maximum(y),
            "mux": shifted.mux(x, y),
        }
        for wire in wires.values():
            builder.output(wire)
        graph = builder.build()
        ranges = infer_ranges(
            graph, {"x": Interval(-1.0, 1.0), "y": Interval(-1.0, 1.0)}
        ).ranges
        assignment = ensure_range_coverage(
            WordLengthAssignment.uniform(graph, 12, ranges), ranges
        )
        breakdown = HardwareCostModel().price(graph, assignment)
        for label, wire in wires.items():
            assert breakdown.per_node[wire.node_name] > 0.0, label
        # A wider word is never cheaper (monotonicity extends to new ops).
        wider = ensure_range_coverage(
            WordLengthAssignment.uniform(graph, 16, ranges), ranges
        )
        assert HardwareCostModel().total(graph, wider) > breakdown.total

    def test_sqrt_gain_at_domain_edge_stays_finite(self):
        """A sqrt operand whose range touches 0 must not crash the gains."""
        builder = DFGBuilder("edge")
        x = builder.input("x")
        builder.output(x.sqrt(), name="out")
        graph = builder.build()
        ranges = infer_ranges(graph, {"x": Interval(0.0, 1.0)}).ranges
        profile = transfer_gains(graph, ranges, output=graph.outputs()[0])
        magnitude = profile.magnitude_of(x.node_name)
        assert math.isfinite(magnitude) and magnitude > 0.0
        # The error rules still (intentionally) refuse the noise analysis:
        # adding quantization error to a [0, 1] operand crosses the domain.
        analyzer, _ = _analyzer_for(graph, {"x": Interval(0.0, 1.0)})
        with pytest.raises(DomainError, match="sqrt"):
            analyzer.analyze("ia")

    def test_transfer_gains_cover_new_ops(self):
        builder = DFGBuilder("gains")
        x = builder.input("x")
        out = ((x + 1.5).sqrt().log() + x.exp().minimum(builder.const(2.0))).maximum(
            abs(x)
        )
        builder.output(out, name="out")
        graph = builder.build()
        ranges = infer_ranges(graph, {"x": Interval(-1.0, 1.0)}).ranges
        profile = transfer_gains(graph, ranges, output=graph.outputs()[0])
        assert profile.magnitude_of(x.node_name) > 0.0

    def test_mux_arity_is_three(self):
        assert OP_ARITY[OpType.MUX] == 3
        for op in (OpType.SQRT, OpType.EXP, OpType.LOG, OpType.ABS):
            assert OP_ARITY[op] == 1
        for op in (OpType.MIN, OpType.MAX):
            assert OP_ARITY[op] == 2
