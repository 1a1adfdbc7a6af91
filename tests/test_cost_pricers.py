"""Compiled pricers against the per-call reference they replaced.

``HardwareCostModel`` compiles a graph once into per-node pricers.  The
reference below is the model's former ``node_cost``: an ``OpType``
dispatch plus a DELAY walk on every call.  Every pricing entry point
(``node_cost``, ``price``, ``total``, ``reprice`` and
``CostLedger.total``) must equal it with ``==`` on every op, on library,
generated and random circuits, under three cost tables and along seeded
random walks.  The compiled table must also follow the graph it was
built from: mutations, two graphs on one model, pickling, and the
delay-cycle error.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random
import weakref

import pytest

from conftest import build_random_circuit
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.errors import OptimizationError
from repro.fixedpoint.format import FixedPointFormat
from repro.noisemodel.assignment import WordLengthAssignment
from repro.optimize.cost import (
    ASIC_COST_TABLE,
    DEFAULT_COST_TABLE,
    CostLedger,
    HardwareCostModel,
    NodePricer,
)
from test_cost_ledger import sequential_mix

TABLES = {
    "lut4": DEFAULT_COST_TABLE,
    "asic": ASIC_COST_TABLE,
    "scaled": ASIC_COST_TABLE.scaled(0.37),
}


# --------------------------------------------------------------------------- #
# The reference: the per-call pricing the compiled pricers replaced.
# --------------------------------------------------------------------------- #
def reference_format(assignment, name):
    fmt = assignment.formats.get(name)
    if fmt is None:
        raise OptimizationError(f"node {name!r} has no fixed-point format to price")
    return fmt


def reference_operand_width(graph, assignment, name):
    seen = set()
    while graph.node(name).op is OpType.DELAY:
        if name in seen:
            raise OptimizationError(f"delay cycle through {name!r}; cannot size the register")
        seen.add(name)
        name = graph.node(name).inputs[0]
    return reference_format(assignment, name).word_length


def reference_node_cost(table, graph, node, assignment):
    if node.op in (OpType.INPUT, OpType.OUTPUT):
        return 0.0
    if node.op is OpType.CONST:
        return table.const_per_bit * reference_format(assignment, node.name).word_length
    if node.op is OpType.DELAY:
        return table.register_per_bit * reference_operand_width(graph, assignment, node.name)
    widths = [reference_operand_width(graph, assignment, operand) for operand in node.inputs]
    rounding = (
        table.op_overhead
        + table.result_per_bit * reference_format(assignment, node.name).word_length
    )
    if node.op in (OpType.ADD, OpType.SUB):
        return rounding + table.add_per_bit * max(widths)
    if node.op is OpType.NEG:
        return rounding + table.neg_per_bit * widths[0]
    if node.op is OpType.ABS:
        return rounding + table.abs_per_bit * widths[0]
    if node.op is OpType.MUL:
        return rounding + table.mul_per_bit_pair * widths[0] * widths[1]
    if node.op is OpType.SQUARE:
        w = widths[0]
        return rounding + table.mul_per_bit_pair * (w * (w + 1)) / 2.0
    if node.op is OpType.DIV:
        return rounding + table.div_per_bit_pair * widths[0] * widths[1]
    if node.op is OpType.SQRT:
        w = widths[0]
        return rounding + table.sqrt_per_bit_pair * (w * (w + 1)) / 2.0
    if node.op is OpType.EXP:
        w = widths[0]
        return rounding + table.exp_per_bit_pair * w * w
    if node.op is OpType.LOG:
        w = widths[0]
        return rounding + table.log_per_bit_pair * w * w
    if node.op in (OpType.MIN, OpType.MAX):
        return rounding + table.minmax_per_bit * max(widths)
    if node.op is OpType.MUX:
        return rounding + table.mux_per_bit * max(widths[1], widths[2])
    raise AssertionError(f"no reference price for {node.op!r}")


def reference_total(table, graph, assignment):
    """``price().total``: graph order, left to right, zeros skipped."""
    total = 0.0
    for node in graph:
        cost = reference_node_cost(table, graph, node, assignment)
        if cost != 0.0:
            total += cost
    return total


def reference_reprice(table, graph, before, after, nodes):
    delta = 0.0
    for name in nodes:
        node = graph.node(name)
        after_cost = reference_node_cost(table, graph, node, after)
        delta += after_cost - reference_node_cost(table, graph, node, before)
    return delta


def assert_prices_match(model, graph, assignment):
    """Every whole-design entry point equals the reference exactly."""
    table = model.table
    expected = {node.name: reference_node_cost(table, graph, node, assignment) for node in graph}
    assert {node.name: model.node_cost(graph, node, assignment) for node in graph} == expected
    breakdown = model.price(graph, assignment)
    assert breakdown.per_node == {name: cost for name, cost in expected.items() if cost != 0.0}
    total = reference_total(table, graph, assignment)
    assert breakdown.total == model.total(graph, assignment) == total
    return total


# --------------------------------------------------------------------------- #
# Designs and walks
# --------------------------------------------------------------------------- #
def random_format(rng):
    return FixedPointFormat(rng.randint(1, 6), rng.randint(0, 20), signed=rng.random() < 0.8)


def random_design(rng, graph):
    """A format on every non-OUTPUT node, drawn without regard to ranges."""
    return WordLengthAssignment(
        {node.name: random_format(rng) for node in graph if node.op is not OpType.OUTPUT}
    )


def every_op():
    """One node of every ``OpType``, with a two-register chain feeding a MUX."""
    graph = DFG("every_op")
    x, y = graph.add_input("x"), graph.add_input("y")
    c = graph.add_const(0.75, name="c")
    s = graph.add_add(x, c, name="s")
    d = graph.add_sub(s, y, name="d")
    m = graph.add_mul(d, x, name="m")
    q = graph.add_div(m, graph.add_exp(y, name="e"), name="q")
    n = graph.add_neg(graph.add_square(q, name="sq"), name="n")
    r = graph.add_sqrt(graph.add_abs(n, name="a"), name="r")
    low = graph.add_min(graph.add_log(r, name="l"), x, name="lo")
    high = graph.add_max(low, y, name="hi")
    z1 = graph.add_delay(high, name="z1")
    z2 = graph.add_delay(z1, name="z2")
    graph.add_output(graph.add_mux(z2, high, z1, name="mx"), name="out")
    return graph


def pricing_graphs():
    graphs = {name: get_circuit(name).graph for name in sorted(CIRCUITS)}
    for spec in ("fir_cascade:taps=3,samples=4", "iir_cascade:sections=2,samples=3"):
        graphs[spec] = generate_circuit(spec).graph
    graphs["mlp_layer"] = generate_circuit("mlp_layer:inputs=3,neurons=2").graph
    graphs["sequential_mix"] = sequential_mix()[0]
    graphs["every_op"] = every_op()
    return graphs


GRAPHS = pricing_graphs()


def walk_step(rng, graph, design):
    """A one-bit move (60%) or a move of two to five nodes."""
    names = list(design)
    if rng.random() < 0.6:
        node = rng.choice(names)
        fmt = design.format_of(node)
        frac = fmt.fractional_bits + rng.choice((-1, 1)) if fmt.fractional_bits else 1
        return design.with_fractional_bits(node, frac), (node,)
    moved = rng.sample(names, min(len(names), rng.randint(2, 5)))
    return design.with_formats({node: random_format(rng) for node in moved}), tuple(moved)


def check_walk(model, graph, seed, steps):
    """Walk ``steps`` moves, holding reprice (both forms) and a ledger to the reference.

    ``prices`` is a price table of the walk's current design, kept the
    way greedy's ranking keeps it: a move drops the ``affected_by``
    scope of every node it changed.
    """
    rng = random.Random(seed)
    table = model.table
    scopes = {name: model.affected_by(graph, name) for name in graph.names()}
    ledger = CostLedger(model, graph, scopes)
    design = random_design(rng, graph)
    prices = {}
    assert ledger.total(design) == assert_prices_match(model, graph, design)
    for _ in range(steps):
        candidate, moved = walk_step(rng, graph, design)
        nodes = tuple(dict.fromkeys(name for node in moved for name in scopes[node]))
        expected = reference_reprice(table, graph, design, candidate, nodes)
        assert model.reprice(graph, design, candidate, nodes) == expected
        if len(moved) == 1:
            substituted = (moved[0], candidate.format_of(moved[0]).word_length)
            table_form = model.reprice(graph, design, None, nodes, prices=prices, moved=substituted)
            assert table_form == expected
        assert ledger.total(candidate) == reference_total(table, graph, candidate)
        if rng.random() < 0.1:
            # An unrelated design: the ledger diffs it in full.
            candidate = random_design(rng, graph)
            assert ledger.total(candidate) == assert_prices_match(model, graph, candidate)
            moved = tuple(candidate)
        if rng.random() < 0.7:
            for node in moved:
                for name in scopes.get(node, ()):
                    prices.pop(name, None)
            design = candidate


# --------------------------------------------------------------------------- #
# Exactness
# --------------------------------------------------------------------------- #
def test_every_op_is_covered():
    assert {node.op for node in every_op()} == set(OpType)


@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_pricers_equal_the_reference(graph_name, table_name):
    graph, model = GRAPHS[graph_name], HardwareCostModel(TABLES[table_name])
    rng = random.Random(f"{graph_name}/{table_name}")
    for _ in range(5):
        assert_prices_match(model, graph, random_design(rng, graph))
    check_walk(model, graph, seed=f"walk/{graph_name}/{table_name}", steps=60)


@pytest.mark.parametrize("seed", range(8))
def test_pricers_equal_the_reference_on_random_graphs(seed):
    graph = build_random_circuit(seed, max_ops=14, validate=False).graph
    for table_name, table in sorted(TABLES.items()):
        check_walk(HardwareCostModel(table), graph, seed=f"{seed}/{table_name}", steps=40)


def test_uniform_designs_equal_the_reference():
    for graph_name, graph in sorted(GRAPHS.items()):
        model = HardwareCostModel(ASIC_COST_TABLE)
        for word_length in range(4, 30, 5):
            formats = {
                node.name: FixedPointFormat(2, word_length - 2)
                for node in graph
                if node.op is not OpType.OUTPUT
            }
            assert_prices_match(model, graph, WordLengthAssignment(formats))


# --------------------------------------------------------------------------- #
# Cache soundness
# --------------------------------------------------------------------------- #
def test_a_graph_grown_after_pricing_is_recompiled():
    graph = every_op()
    model = HardwareCostModel()
    rng = random.Random("grown")
    design = random_design(rng, graph)
    scopes = {name: model.affected_by(graph, name) for name in graph.names()}
    ledger = CostLedger(model, graph, scopes)
    before = ledger.total(design)
    assert before == assert_prices_match(model, graph, design)
    graph.add_op(OpType.MUL, "mx", "c", name="late")
    grown = design.with_formats({"late": FixedPointFormat(3, 9)})
    after = assert_prices_match(model, graph, grown)
    assert after > before
    assert ledger.total(grown) == after
    shaved = grown.with_fractional_bits("late", 4)
    assert model.reprice(graph, grown, shaved, ("late",)) == reference_reprice(
        model.table, graph, grown, shaved, ("late",)
    )


def test_a_rewired_register_chain_is_recompiled():
    graph, _ = sequential_mix()
    model = HardwareCostModel()
    design = WordLengthAssignment(
        {
            node.name: FixedPointFormat(2, 3 if node.name == "x" else 14)
            for node in graph
            if node.op is not OpType.OUTPUT
        }
    )
    scopes = {name: model.affected_by(graph, name) for name in graph.names()}
    ledger = CostLedger(model, graph, scopes)
    before = ledger.total(design)
    assert before == assert_prices_match(model, graph, design)
    # d2 (and so d3, divisor and gap) now store acc's 16-bit word, not x's 5 bits.
    graph.connect_delay("d2", "acc")
    after = assert_prices_match(model, graph, design)
    assert after > before
    assert ledger.total(design) == after
    check_walk(model, graph, seed="rewired", steps=40)


def test_one_model_prices_two_graphs_in_alternation():
    model = HardwareCostModel(ASIC_COST_TABLE)
    first, second = GRAPHS["sequential_mix"], GRAPHS["every_op"]
    rng = random.Random("alternate")
    designs = {id(first): random_design(rng, first), id(second): random_design(rng, second)}
    for _ in range(4):
        for graph in (first, second, first):
            design = designs[id(graph)]
            assert_prices_match(model, graph, design)
            candidate, moved = walk_step(rng, graph, design)
            nodes = tuple(
                dict.fromkeys(name for node in moved for name in model.affected_by(graph, node))
            )
            assert model.reprice(graph, design, candidate, nodes) == reference_reprice(
                model.table, graph, design, candidate, nodes
            )
            designs[id(graph)] = candidate


def test_a_pickled_model_prices_again_after_the_round_trip():
    graph = GRAPHS["every_op"]
    model = HardwareCostModel(TABLES["scaled"])
    design = random_design(random.Random("pickle"), graph)
    expected = assert_prices_match(model, graph, design)
    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model), copy.copy(model)):
        assert clone.table == model.table
        assert assert_prices_match(clone, graph, design) == expected
        check_walk(clone, graph, seed="pickled", steps=20)
    assert assert_prices_match(model, graph, design) == expected


def test_the_compiled_table_keeps_no_graph_alive():
    model = HardwareCostModel()
    graph = every_op()
    model.total(graph, random_design(random.Random("alive"), graph))
    alive = weakref.ref(graph)
    del graph
    gc.collect()
    assert alive() is None


def test_an_unconnected_register_raises_naming_it():
    graph = DFG("loose")
    x = graph.add_input("x")
    loose = graph.add_delay(name="loose")
    graph.add_output(graph.add_add(x, loose, name="s"), name="y")
    design = WordLengthAssignment({name: FixedPointFormat(2, 8) for name in ("x", "loose", "s")})
    model = HardwareCostModel()
    for price in (model.total, model.price):
        with pytest.raises(OptimizationError, match="delay cycle through 'loose'"):
            price(graph, design)
    with pytest.raises(OptimizationError, match="delay cycle through 'loose'"):
        model.reprice(graph, design, design, ("s",))
    # Wiring the register mends the graph, and the model recompiles it.
    graph.connect_delay(loose, "s")
    assert_prices_match(model, graph, design)


def test_a_register_only_cycle_raises_naming_a_register():
    graph = DFG("ring")
    first = graph.add_delay(name="first")
    second = graph.add_delay(first, name="second")
    graph.connect_delay(first, second)
    design = WordLengthAssignment({name: FixedPointFormat(2, 8) for name in (first, second)})
    with pytest.raises(OptimizationError, match="delay cycle through '(first|second)'"):
        HardwareCostModel().total(graph, design)


def test_a_missing_format_raises_from_every_entry_point():
    graph = GRAPHS["every_op"]
    model = HardwareCostModel()
    design = random_design(random.Random("missing"), graph)
    partial = WordLengthAssignment(
        {name: fmt for name, fmt in design.formats.items() if name != "m"}
    )
    scopes = {name: model.affected_by(graph, name) for name in graph.names()}
    ledger = CostLedger(model, graph, scopes)
    assert ledger.total(design) == reference_total(model.table, graph, design)
    for price in (
        lambda: model.total(graph, partial),
        lambda: model.price(graph, partial),
        lambda: model.node_cost(graph, graph.node("q"), partial),
        lambda: model.reprice(graph, design, partial, model.affected_by(graph, "m")),
        lambda: model.reprice(
            graph, partial, None, model.affected_by(graph, "q"), prices={}, moved=("q", 9)
        ),
        lambda: ledger.total(partial),
    ):
        with pytest.raises(OptimizationError, match="'m' has no fixed-point format"):
            price()
    # The failed update left the ledger on the previous design.
    assert ledger.total(design) == reference_total(model.table, graph, design)


# --------------------------------------------------------------------------- #
# The override point
# --------------------------------------------------------------------------- #
def test_overriding_node_cost_fails_at_class_creation():
    with pytest.raises(TypeError, match="override node_pricer"):

        class Stale(HardwareCostModel):
            def node_cost(self, graph, node, assignment):
                return 1.0


def test_a_node_pricer_override_prices_every_entry_point():
    class FlatRegisters(HardwareCostModel):
        """Registers cost a fixed 5.0 whatever they store."""

        def node_pricer(self, graph, node):
            if node.op is OpType.DELAY:
                return NodePricer(None, (), lambda: 5.0)
            return super().node_pricer(graph, node)

    graph = GRAPHS["sequential_mix"]
    design = random_design(random.Random("flat"), graph)
    plain, flat = HardwareCostModel(), FlatRegisters()
    breakdown = flat.price(graph, design)
    assert breakdown.per_op["delay"] == 5.0 * len(graph.delays())
    assert breakdown.total == flat.total(graph, design) != plain.total(graph, design)
    shaved = design.with_fractional_bits("x", design.format_of("x").fractional_bits + 1)
    nodes = flat.affected_by(graph, "x")
    expected = 0.0
    for name in nodes:
        node = graph.node(name)
        expected += flat.node_cost(graph, node, shaved) - flat.node_cost(graph, node, design)
    assert flat.reprice(graph, design, shaved, nodes) == expected != 0.0


def test_a_pricer_reading_beyond_its_operands_is_rejected():
    class Grandparent(HardwareCostModel):
        def node_pricer(self, graph, node):
            pricer = super().node_pricer(graph, node)
            if node.name == "m":
                return pricer._replace(operands=("s", "x"))  # s feeds d, not m
            return pricer

    graph = GRAPHS["every_op"]
    design = random_design(random.Random("grandparent"), graph)
    with pytest.raises(OptimizationError, match="pricer of 'm' reads"):
        Grandparent().total(graph, design)
