"""Batched fallback probes run on the problem's own incremental engine.

For methods without a compiled vector program (everything but mean-square
``ia``), ``BatchedAnalyzer.price_moves`` prices each move by probing an
:class:`IncrementalAnalyzer`.  An optimization problem hands the batched
engine the same incremental engine its evaluations use, and
``notify_accepted`` commits it, so a probe re-propagates only its own
move's cone.  These tests hold every lane to a private engine with
``==``, count engines and recomputed nodes, bound the nodes a whole
greedy search re-propagates, check that compiled ``ia`` searches never
fall back to probes, inject a failure into the shared engine, and pin
golden designs.  They also check that the trusted
:class:`AffineForm` constructor behind the affine kernels builds exactly
what the public constructor builds, and that the affine and Taylor
reductions add left to right on every Python version.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

import repro.analysis.batched as batched_module
import repro.analysis.incremental as incremental_module
from conftest import reference_noise
from repro.analysis.incremental import IncrementalAnalyzer
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.config import OptimizeConfig
from repro.errors import DivisionByZeroIntervalError, DomainError, NoiseModelError
from repro.intervals.affine import AffineContext, AffineForm
from repro.intervals.taylor import TaylorModel
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer
from repro.noisemodel.assignment import ensure_range_coverage
from repro.optimize import OptimizationProblem
from repro.optimize.pareto import pareto_front
from repro.optimize.strategies import GreedyBitStealingOptimizer

HORIZON = 4
BINS = 8


def make_problem(circuit_name, method="aa", confidence=None, floor=55.0):
    config = OptimizeConfig(
        method=method,
        confidence=confidence,
        engine="batched",
        margin_db=1.0,
        horizon=HORIZON,
        bins=BINS,
    )
    return OptimizationProblem.from_circuit(get_circuit(circuit_name), floor, config=config)


def private_prices(problem, engine, assignment, moves):
    """The moves priced one by one on ``engine``, never committing it."""
    prices = []
    for node, new_frac in moves:
        try:
            candidate = ensure_range_coverage(
                assignment.with_fractional_bits(node, new_frac), problem.ranges
            )
            prices.append(
                engine.noise_power(
                    candidate,
                    problem.method,
                    output=problem.output,
                    commit=False,
                    confidence=problem.confidence,
                )
            )
        except (NoiseModelError, DomainError, DivisionByZeroIntervalError):
            prices.append(math.inf)
    return prices


def random_moves(problem, assignment, rng, count):
    moves = []
    for node in rng.sample(problem.tunable, min(count, len(problem.tunable))):
        frac = assignment.format_of(node).fractional_bits
        moves.append((node, max(0, frac + rng.choice((-3, -2, -1, 1)))))
    return moves


def walk_and_compare(problem, seed, steps=10, width=8):
    """A seeded walk over two rescoped views; every lane ``==`` a private engine's."""
    rng = random.Random(seed)
    views = [problem.rescoped(50.0), problem.rescoped(45.0)]
    private = IncrementalAnalyzer(
        problem.graph,
        problem.uniform(12),
        problem.input_ranges,
        horizon=problem.horizon,
        bins=problem.bins,
    )
    current = views[0].evaluate(views[0].uniform(12))
    views[0].notify_accepted(current.assignment)
    lanes = 0
    for step in range(steps):
        view = views[step % 2]
        moves = random_moves(problem, current.assignment, rng, width)
        got = list(view.price_moves(current.assignment, moves))
        assert got == private_prices(problem, private, current.assignment, moves)
        lanes += len(moves)
        node, new_frac = rng.choice(moves)
        # The other view evaluates and accepts the move, so the shared
        # engine's committed baseline moves under the pricing view.
        other = views[(step + 1) % 2]
        evaluation = other.evaluate(current.assignment.with_fractional_bits(node, new_frac))
        if math.isfinite(evaluation.noise_power):
            current = evaluation
            other.notify_accepted(current.assignment)
    return lanes


@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
@pytest.mark.parametrize("method", ("aa", "taylor", "sna"))
def test_shared_probes_equal_private_engine(circuit_name, method):
    problem = make_problem(circuit_name, method)
    assert walk_and_compare(problem, f"{circuit_name}/{method}") > 0
    assert problem.fallback_probes > 0


@pytest.mark.parametrize("circuit_name", ("fir4", "poly3", "sigmoid_neuron"))
@pytest.mark.parametrize("method,confidence", (("pna", 0.999), ("aa", 1.0)))
def test_shared_confidence_probes_equal_private_engine(circuit_name, method, confidence):
    problem = make_problem(circuit_name, method, confidence)
    assert walk_and_compare(problem, f"{circuit_name}/{method}@{confidence}", steps=4) > 0
    assert problem.fallback_probes > 0


@pytest.mark.parametrize("method", ("ia", "aa"))
def test_pareto_sweep_builds_one_incremental_engine(monkeypatch, method):
    """One search builds one incremental engine and one analyzer beneath it.

    The batched engine is that incremental engine's compiled kernel: it
    reads the engine's analyzer rather than building a second one.
    """
    built = []
    analyzers = []
    real_init = IncrementalAnalyzer.__init__
    real_analyzer_init = DatapathNoiseAnalyzer.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def counting_analyzer_init(self, *args, **kwargs):
        analyzers.append(self)
        real_analyzer_init(self, *args, **kwargs)

    monkeypatch.setattr(incremental_module.IncrementalAnalyzer, "__init__", counting_init)
    monkeypatch.setattr(DatapathNoiseAnalyzer, "__init__", counting_analyzer_init)
    problem = make_problem("fir4", method)
    front = pareto_front(problem, [45.0, 55.0, 65.0], strategy="greedy")
    assert front.is_monotone()
    if method == "ia":
        assert problem.batched_calls > 0
    else:
        assert problem.fallback_probes > 0
    assert built == [problem._state.incremental]
    assert analyzers == [built[0].analyzer]
    assert problem.batched_engine()._engine is built[0]


@pytest.mark.parametrize("circuit_name", ("fir4", "iir_biquad", "matmul2"))
def test_probe_from_committed_design_recomputes_only_its_cone(circuit_name):
    problem = make_problem(circuit_name)
    rng = random.Random(circuit_name)
    current = problem.evaluate(problem.uniform(12))
    problem.notify_accepted(current.assignment)
    # Accept a few moves first: an engine that is shared but never
    # committed would still re-propagate their cones on every probe.
    for _ in range(3):
        node = rng.choice(problem.tunable)
        frac = current.assignment.format_of(node).fractional_bits
        current = problem.evaluate(current.assignment.with_fractional_bits(node, frac - 2))
        problem.notify_accepted(current.assignment)
    engine = problem._state.incremental
    target = engine.analyzer._resolve_output(problem.output)
    for node in problem.tunable:
        frac = current.assignment.format_of(node).fractional_bits
        before = engine.stats.nodes_recomputed
        noise = problem.price_moves(current.assignment, [(node, frac - 1)])
        assert math.isfinite(noise[0])
        recomputed = engine.stats.nodes_recomputed - before
        assert recomputed == len(engine.cone_of(node, target)), node


#: The greedy searches the recompute and compiled-lane bounds run.
SEARCH_CONFIG = OptimizeConfig(snr_floor_db=58.0, margin_db=1.0, horizon=6, bins=16)


@pytest.mark.parametrize("circuit_name", ("fft_butterfly", "matmul2"))
@pytest.mark.parametrize("method", ANALYSIS_METHODS)
def test_greedy_recomputes_under_half_a_graph_per_analysis(circuit_name, method):
    """A whole greedy search re-propagates at most half a graph per analysis.

    A from-scratch evaluator propagates the whole graph per analysis, so
    this is the node-count form of a 2x inner-loop floor, with no clock
    in it.  A search whose accepted moves are never committed re-pays
    their cones on every probe and crosses the bound on ``fft_butterfly``.
    """
    config = SEARCH_CONFIG.replace(method=method)
    problem = OptimizationProblem.from_circuit(get_circuit(circuit_name), 58.0, config=config)
    assert GreedyBitStealingOptimizer().optimize(problem).feasible
    recomputed = problem._state.incremental.stats.nodes_recomputed
    assert recomputed <= 0.5 * problem.analyzer_calls * len(problem.graph)


@pytest.mark.parametrize("circuit_name", ("iir_biquad", "matmul2", "rms_normalize"))
def test_batched_ia_greedy_prices_every_lane_compiled(circuit_name):
    """Mean-square ``ia`` frontiers run on the compiled program, never on probes."""
    config = SEARCH_CONFIG.replace(method="ia", engine="batched")
    problem = OptimizationProblem.from_circuit(get_circuit(circuit_name), 58.0, config=config)
    assert GreedyBitStealingOptimizer().optimize(problem).feasible
    assert problem.engine == "batched"
    assert problem.batched_calls > 0
    assert problem.fallback_probes == 0


def test_shared_engine_failure_degrades_once_and_stays_exact(monkeypatch):
    problem = make_problem("iir_biquad")
    problem.analysis_log = []
    inside = []
    real_price_moves = batched_module.BatchedAnalyzer.price_moves

    def tracking_price_moves(self, *args, **kwargs):
        inside.append(True)
        try:
            return real_price_moves(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(batched_module.BatchedAnalyzer, "price_moves", tracking_price_moves)
    problem.evaluate(problem.uniform(12))
    engine = problem._state.incremental
    real_error_of = engine.analyzer._error_of
    injected = []

    def failing_error_of(*args, **kwargs):
        # Fail once, partway through a probe's cone, mid-sweep.
        if inside and problem.fallback_probes == 25 and not injected:
            injected.append(True)
            raise NoiseModelError("synthetic shared-engine failure")
        return real_error_of(*args, **kwargs)

    monkeypatch.setattr(engine.analyzer, "_error_of", failing_error_of)
    result = GreedyBitStealingOptimizer().optimize(problem)
    assert injected and result.feasible
    assert [(e.stage, e.from_engine, e.to_engine) for e in problem.degradations] == [
        ("batched-price", "batched", "incremental")
    ]
    assert problem._state.incremental is engine
    evaluations = problem._state.evaluations
    assert len(problem.analysis_log) > 25
    for assignment in problem.analysis_log:
        assert evaluations[assignment.key()].noise_power == reference_noise(problem, assignment)


def design_digest(result):
    document = [
        result.assignment.to_doc(),
        repr(result.cost),
        [
            [record.action, record.accepted, repr(record.cost), repr(record.snr_db)]
            for record in result.iterations
        ],
    ]
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


#: ``(repr(cost), iterations, design_digest)`` of batched aa greedy at
#: 55 dB (margin 1, horizon 4, 8 bins), recorded with a private,
#: never-committed probe engine inside the batched analyzer.
GOLDEN = {
    "fir4": (
        "155.48",
        81,
        "f796e4a69548a0372e3a507e9217024422a7d90869dfaa829ec48c7e435ddb57",
    ),
    "iir_biquad": (
        "284.83",
        52,
        "78f2309a8cf9a5fadb0afe1ed22f30d9ebf09f5a72cf7c0bf80a76c001c8b835",
    ),
    "matmul2": (
        "232.60000000000002",
        274,
        "a063bc1bdbb9a06b26e4bfb91b9b4753b82250d53e8e7c4245ba74ad751ab049",
    ),
}


@pytest.mark.parametrize("circuit_name", sorted(GOLDEN))
def test_batched_aa_greedy_designs_unchanged(circuit_name):
    problem = make_problem(circuit_name)
    result = GreedyBitStealingOptimizer().optimize(problem)
    assert result.feasible and problem.fallback_probes > 0
    observed = (repr(result.cost), len(result.iterations), design_digest(result))
    assert observed == GOLDEN[circuit_name]


# ---------------------------------------------------------------------- #
# the trusted affine-form constructor
# ---------------------------------------------------------------------- #
def public_add(a, b):
    names = dict.fromkeys(a.terms)
    names.update(dict.fromkeys(b.terms))
    terms = {n: a.coefficient(n) + b.coefficient(n) for n in names}
    return AffineForm(a.center + b.center, terms, a.context)


def public_mul(a, b):
    if not b.terms:
        return public_scale(a, b.center)
    if not a.terms:
        return public_scale(b, a.center)
    names = dict.fromkeys(a.terms)
    names.update(dict.fromkeys(b.terms))
    terms = {}
    for n in names:
        coeff = a.center * b.coefficient(n) + b.center * a.coefficient(n)
        if coeff != 0.0:
            terms[n] = coeff
    nonlinear = a.radius * b.radius
    if nonlinear != 0.0:
        terms[a.context.fresh()] = nonlinear
    return AffineForm(a.center * b.center, terms, a.context)


def public_scale(a, factor):
    factor = float(factor)
    return AffineForm(a.center * factor, {n: c * factor for n, c in a.terms.items()}, a.context)


def public_sum(items, context):
    center = 0.0
    terms = {}
    for item in items:
        if isinstance(item, AffineForm):
            center += item.center
            for n, c in item.terms.items():
                terms[n] = terms.get(n, 0.0) + c
        else:
            center += float(item)
    return AffineForm(center, terms, context)


#: name -> (trusted operation, public-constructor reference); each
#: receives ``(a, b, items)`` built in its own context.
OPERATIONS = {
    "neg": (lambda a, b, i: -a, lambda a, b, i: public_scale(a, -1.0)),
    "add": (lambda a, b, i: a + b, lambda a, b, i: public_add(a, b)),
    "add-cancelling": (
        lambda a, b, i: a + (-a),
        lambda a, b, i: public_add(a, public_scale(a, -1.0)),
    ),
    "radd-number": (
        lambda a, b, i: 2.5 + a,
        lambda a, b, i: public_add(a, AffineForm(2.5, {}, a.context)),
    ),
    "sub": (lambda a, b, i: a - b, lambda a, b, i: public_add(a, public_scale(b, -1.0))),
    "rsub-number": (
        lambda a, b, i: 1.0 - a,
        lambda a, b, i: public_add(AffineForm(1.0, {}, a.context), public_scale(a, -1.0)),
    ),
    "scale": (lambda a, b, i: a.scale(0.375), lambda a, b, i: public_scale(a, 0.375)),
    "scale-zero": (lambda a, b, i: a.scale(-0.0), lambda a, b, i: public_scale(a, -0.0)),
    "scale-underflow": (
        lambda a, b, i: a.scale(1e-320),
        lambda a, b, i: public_scale(a, 1e-320),
    ),
    "shift": (
        lambda a, b, i: a.shift(-0.25),
        lambda a, b, i: AffineForm(a.center + -0.25, a.terms, a.context),
    ),
    "mul": (lambda a, b, i: a * b, lambda a, b, i: public_mul(a, b)),
    "mul-number": (lambda a, b, i: a * 3, lambda a, b, i: public_scale(a, 3)),
    "mul-termless": (
        lambda a, b, i: a * AffineForm(2.0, {}, a.context),
        lambda a, b, i: public_scale(a, 2.0),
    ),
    "mul-self-negated": (
        lambda a, b, i: a * (-a),
        lambda a, b, i: public_mul(a, public_scale(a, -1.0)),
    ),
    "sum-small": (
        lambda a, b, i: AffineForm.sum_of(i[:3], a.context),
        lambda a, b, i: public_sum(i[:3], a.context),
    ),
    "sum-large": (
        lambda a, b, i: AffineForm.sum_of(i, a.context),
        lambda a, b, i: public_sum(i, a.context),
    ),
    "sum-default-context": (
        lambda a, b, i: AffineForm.sum_of(i),
        lambda a, b, i: public_sum(i, a.context),
    ),
}


def operands(context, rng):
    """Forms of ``context`` sharing symbols, with exact cancellations."""
    names = [context.register(f"s{k}") for k in range(12)]

    def form(count):
        picked = rng.sample(names, count)
        return AffineForm(rng.uniform(-2, 2), {n: rng.uniform(-1, 1) for n in picked}, context)

    a, b = form(7), form(6)
    # b cancels one of a's symbols exactly, so a + b must drop a zero.
    shared = next(iter(a.terms))
    b = AffineForm(b.center, {**b.terms, shared: -a.terms[shared]}, context)
    items = [a, b, 0.5, -a, form(9), 3, form(10), form(8)]
    return a, b, items


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@pytest.mark.parametrize("seed", range(4))
def test_trusted_affine_operations_match_public_constructor(name, seed):
    trusted, public = OPERATIONS[name]
    # Twin contexts register the same names in the same order, so fresh
    # linearization symbols get the same names in both.
    fast_context, slow_context = AffineContext(), AffineContext()
    a, b, items = operands(fast_context, random.Random(seed))
    ra, rb, ritems = operands(slow_context, random.Random(seed))
    got = trusted(a, b, items)
    want = public(ra, rb, ritems)
    assert type(got.center) is float and got.center == want.center
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is float and c != 0.0 for c in got.terms.values())
    assert got.context is fast_context
    assert fast_context.symbols == slow_context.symbols


def test_cross_context_operations_register_foreign_symbols():
    mine, theirs = AffineContext(), AffineContext()
    a = mine.variable("x", -1.0, 1.0)
    b = theirs.variable("y", 0.0, 2.0)
    assert (a + b).context is mine and "y" in mine.symbols
    other = AffineContext()
    product = other.variable("p", 1.0, 2.0) * theirs.variable("q", 1.0, 3.0)
    assert {"p", "q"} <= other.symbols and set(product.terms) <= other.symbols
    total = AffineForm.sum_of([theirs.variable("r", 0.0, 1.0)], context=mine)
    assert "r" in mine.symbols and total.context is mine


# ---------------------------------------------------------------------- #
# version-independent reductions
# ---------------------------------------------------------------------- #
def test_affine_radius_adds_left_to_right():
    # Compensated summation (builtin sum on Python 3.12+) gives 1 + 2**-52.
    assert AffineForm(0.0, {"a": 1.0, "b": 1e-16, "c": 1e-16}).radius == 1.0


def test_affine_variance_adds_left_to_right():
    error = AffineForm(0.0, {"a": 1.0, "b": 1e-8, "c": 1e-8})
    assert DatapathNoiseAnalyzer._moments_aa(error) == (0.0, 1.0 / 3.0)


def test_taylor_moments_and_bounds_add_left_to_right():
    model = TaylorModel(0.0, {"a": 1.0, "b": 1e-8, "c": 1e-8})
    assert DatapathNoiseAnalyzer._moments_taylor(model)[1] == 1.0 / 3.0
    linear = TaylorModel(0.0, {"a": 1.0, "b": 1e-16, "c": 1e-16})
    quadratic = TaylorModel(0.0, {}, {("a", "b"): 1.0})
    # The degree-3 remainder is |linear| * |quadratic|, with |linear|
    # summed left to right to exactly 1.0.
    assert (linear * quadratic).remainder.hi == 1.0
