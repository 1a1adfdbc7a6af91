"""The cost ledger behind ``OptimizationProblem.evaluate``.

``evaluate`` prices a candidate by re-pricing only the nodes a format
change can move, then re-summing the per-node vector in graph order.
These tests hold every evaluation to a fresh ``HardwareCostModel.price``
with ``==``.  They cover seeded random walks over library, generated and
sequential circuits, interleaved across two rescoped views; a
``node_cost`` that raises partway through an update; and golden greedy
and anneal designs.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.benchmarks.circuits import get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.config import OptimizeConfig
from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.errors import ReproError
from repro.optimize import HardwareCostModel, OptimizationProblem
from repro.optimize.cost import CostLedger
from repro.optimize.strategies import GreedyBitStealingOptimizer, SimulatedAnnealingOptimizer


def ordered_total(model, graph, assignment):
    """``price().total`` spelled out: graph order, left to right, zeros skipped."""
    total = 0.0
    for node in graph:
        cost = model.node_cost(graph, node, assignment)
        if cost != 0.0:
            total += cost
    return total


def assert_exact(problem, evaluation):
    model, graph = problem.cost_model, problem.graph
    fresh = model.price(graph, evaluation.assignment).total
    assert evaluation.cost == fresh == ordered_total(model, graph, evaluation.assignment)


def sequential_mix():
    """A feedback loop and a three-register DELAY chain around CONST, MUX and DIV."""
    graph = DFG("sequential_mix")
    x = graph.add_input("x")
    half = graph.add_const(0.5, name="half")
    quarter = graph.add_const(0.25, name="quarter")
    fb1 = graph.add_delay(name="fb1")
    fb2 = graph.add_delay(fb1, name="fb2")
    acc = graph.add_add(graph.add_mul(x, half), graph.add_mul(fb2, quarter), name="acc")
    graph.connect_delay(fb1, acc)
    d1 = graph.add_delay(x, name="d1")
    d2 = graph.add_delay(d1, name="d2")
    d3 = graph.add_delay(d2, name="d3")
    divisor = graph.add_add(d2, graph.add_const(3.0, name="three"), name="divisor")
    ratio = graph.add_div(graph.add_sub(acc, d3, name="gap"), divisor, name="ratio")
    select = graph.add_mux(d1, ratio, graph.add_mul(d3, half), name="select")
    graph.add_output(select, name="y")
    return graph, {"x": (-1.0, 1.0)}


def make_problem(circuit, floor=50.0, cost_model=None, cost_table="lut4", input_ranges=None):
    config = OptimizeConfig(
        snr_floor_db=floor,
        method="ia",
        engine="incremental",
        horizon=4,
        bins=8,
        margin_db=0.0,
        cost_table=cost_table,
    )
    return OptimizationProblem.from_circuit(
        circuit, floor, input_ranges=input_ranges, config=config, cost_model=cost_model
    )


def walk_candidate(rng, problem, design):
    """One step of the walk from ``design``: a shave, a jump, a ladder rung or a clip."""
    tunable = problem.tunable
    kind = rng.random()
    if kind < 0.4:
        node = rng.choice(tunable)
        fmt = design.format_of(node)
        return design.with_fractional_bits(node, max(0, fmt.fractional_bits - 1))
    if kind < 0.7:
        candidate = design
        for node in rng.sample(tunable, min(len(tunable), rng.randint(2, 5))):
            candidate = candidate.with_fractional_bits(node, rng.randint(0, 14))
        return candidate
    if kind < 0.85:
        return problem.uniform(problem.min_word_length + rng.randint(0, 10))
    # Drop an integer bit: evaluate() must widen it back before pricing.
    node = rng.choice(tunable)
    fmt = design.format_of(node)
    if fmt.integer_bits < 2:
        return design
    return design.with_formats({node: fmt.with_integer_bits(fmt.integer_bits - 1)})


def walk(problem, seed, steps):
    """Random walk over two interleaved views; every evaluation is checked."""
    rng = random.Random(seed)
    views = [problem.rescoped(problem.snr_floor_db), problem.rescoped(problem.snr_floor_db - 15)]
    cursors = [view.uniform(view.min_word_length + 6) for view in views]
    widened = 0
    for _ in range(steps):
        pick = rng.randrange(len(views))
        view = views[pick]
        candidate = walk_candidate(rng, view, cursors[pick])
        try:
            evaluation = view.evaluate(candidate)
        except ReproError:  # an uncoverable clip; the walk just moves on
            continue
        assert_exact(view, evaluation)
        widened += evaluation.assignment.formats != candidate.formats
        if rng.random() < 0.7:
            cursors[pick] = evaluation.assignment
    assert problem.analyzer_calls > steps // 3
    return widened


WALK_CIRCUITS = {
    "fir4": lambda: get_circuit("fir4"),
    "iir_biquad": lambda: get_circuit("iir_biquad"),
    "fft_butterfly": lambda: get_circuit("fft_butterfly"),
    "mlp_layer": lambda: generate_circuit("mlp_layer:inputs=3,neurons=2"),
    "fir_cascade": lambda: generate_circuit("fir_cascade:taps=3,samples=4"),
}


@pytest.mark.parametrize("cost_table", ["lut4", "asic"])
@pytest.mark.parametrize("name", sorted(WALK_CIRCUITS))
def test_walk_prices_exactly_on_library_circuits(name, cost_table):
    problem = make_problem(WALK_CIRCUITS[name](), cost_table=cost_table)
    assert walk(problem, seed=f"{name}/{cost_table}", steps=80) > 0


@pytest.mark.parametrize("seed", range(6))
def test_walk_prices_exactly_on_random_graphs(seed, random_circuit_factory):
    walk(make_problem(random_circuit_factory(seed), floor=40.0), seed=seed, steps=50)


def test_walk_prices_exactly_through_delay_chains():
    graph, ranges = sequential_mix()
    assert graph.delays() == ["fb1", "fb2", "d1", "d2", "d3"]
    problem = make_problem(graph, floor=40.0, input_ranges=ranges)
    # gap reads x's width through three registers, select through one.
    assert {"d3", "gap", "select"} <= set(problem.pricing_neighbourhood()["x"][0])
    assert walk(problem, seed="sequential_mix", steps=150) > 0


def test_walks_cover_const_mux_and_div(random_circuit_factory):
    ops = set()
    for seed in range(6):
        ops |= {node.op for node in random_circuit_factory(seed).graph}
    ops |= {node.op for node in sequential_mix()[0]}
    assert {OpType.CONST, OpType.MUX, OpType.DIV, OpType.DELAY} <= ops


class FlakyCostModel(HardwareCostModel):
    """Raises from the ``fail_after``-th ``node_cost`` call once it is armed."""

    def __init__(self) -> None:
        super().__init__()
        self.fail_after = None

    def node_cost(self, graph, node, assignment):
        if self.fail_after is not None:
            self.fail_after -= 1
            if self.fail_after == 0:
                self.fail_after = None
                raise RuntimeError("flaky node_cost")
        return super().node_cost(graph, node, assignment)


def test_failed_update_leaves_the_ledger_on_the_previous_design():
    model = FlakyCostModel()
    problem = make_problem(get_circuit("fir4"), cost_model=model)
    base = problem.evaluate(problem.uniform(14))
    muls = [n.name for n in problem.graph if n.op is OpType.MUL]
    far = [n.name for n in problem.graph if n.op is OpType.ADD][-1]
    candidate = base.assignment
    for node in muls[:2]:
        candidate = candidate.with_fractional_bits(node, 3)
    # The first re-priced node gets its new price, then the second raises.
    model.fail_after = 2
    with pytest.raises(RuntimeError, match="flaky"):
        problem.evaluate(candidate)
    elsewhere = base.assignment.with_fractional_bits(far, 2)
    assert_exact(problem, problem.evaluate(elsewhere))
    # Fail again mid-update, then price the failed candidate itself.
    model.fail_after = 2
    with pytest.raises(RuntimeError, match="flaky"):
        problem.evaluate(candidate)
    assert_exact(problem, problem.evaluate(candidate))


def test_ledger_total_matches_price_and_ignores_foreign_formats():
    circuit = get_circuit("iir_biquad")
    problem = make_problem(circuit)
    model = problem.cost_model
    scopes = {name: model.affected_by(problem.graph, name) for name in problem.graph.names()}
    ledger = CostLedger(model, problem.graph, scopes)
    design = problem.uniform(12)
    assert ledger.total(design) == model.price(problem.graph, design).total
    foreign = design.with_formats({"not_a_node": design.format_of(problem.tunable[0])})
    assert ledger.total(foreign) == model.price(problem.graph, foreign).total
    # A later change to the priced design must not fool the ledger.
    node = problem.tunable[-1]
    derived = foreign.with_formats({node: foreign.format_of(node).with_fractional_bits(1)})
    assert ledger.total(derived) == model.price(problem.graph, derived).total
    assert ledger.total(foreign) == model.price(problem.graph, foreign).total


def test_evaluation_has_no_breakdown():
    problem = make_problem(get_circuit("quadratic"))
    evaluation = problem.evaluate(problem.uniform(10))
    assert not hasattr(evaluation, "breakdown")
    assert_exact(problem, evaluation)


def design_digest(result):
    document = [
        result.assignment.to_doc(),
        repr(result.cost),
        [[record.action, record.accepted, repr(record.cost)] for record in result.iterations],
    ]
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


GOLDEN_CIRCUITS = {
    "iir_biquad": lambda: get_circuit("iir_biquad"),
    "mlp_layer": lambda: generate_circuit("mlp_layer:inputs=3,neurons=2"),
    "fir_cascade": lambda: generate_circuit("fir_cascade:taps=3,samples=5"),
}

#: ``(repr(cost), iterations, design_digest)`` at 55 dB (ia, margin 0,
#: horizon 4, 8 bins), recorded with full pricing of every evaluation.
GOLDEN = {
    ("anneal", "fir_cascade"): (
        "1548.5999999999997",
        131,
        "53c6b396440ef12f8720fe2f45156c2b4ba7520b4c81443fe7e20f80d2101689",
    ),
    ("anneal", "iir_biquad"): (
        "393.35",
        132,
        "d9a0d8160627126e4c45df9f3fdb307bc0316e14ea66f4c2f9ff69ea7db88efa",
    ),
    ("anneal", "mlp_layer"): (
        "1731.4900000000005",
        131,
        "c4ece02dc99034d7bbabd9220032f004726053debcd525ebb9a26a55e1ea78a6",
    ),
    ("greedy", "fir_cascade"): (
        "1390.1500000000005",
        173,
        "a3a98fc92a4d50460c911f1751b1362af2c3ca0a73d88fbe1702edf4fdc5a805",
    ),
    ("greedy", "iir_biquad"): (
        "334.83",
        83,
        "31731df656b17e4d06cd67e4e0f31285b74fe9b652348564e768f5114723d778",
    ),
    ("greedy", "mlp_layer"): (
        "1034.8900000000003",
        214,
        "79013646419f8f60f0b3aeb2dee9e2e01ee97023f7c6c78031d33156c1dcf369",
    ),
}


@pytest.mark.parametrize("strategy,circuit_name", sorted(GOLDEN))
def test_designs_unchanged(strategy, circuit_name):
    problem = make_problem(GOLDEN_CIRCUITS[circuit_name](), floor=55.0)
    if strategy == "greedy":
        optimizer = GreedyBitStealingOptimizer()
    else:
        optimizer = SimulatedAnnealingOptimizer(iterations=120, seed=7)
    result = optimizer.optimize(problem)
    assert result.feasible
    observed = (repr(result.cost), len(result.iterations), design_digest(result))
    assert observed == GOLDEN[(strategy, circuit_name)]
