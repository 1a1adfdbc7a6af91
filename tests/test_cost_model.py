"""Tests for the HLS hardware cost model (monotonicity above all)."""

from __future__ import annotations

import math

import pytest

from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.dfg.node import OpType
from repro.dfg.range_analysis import infer_ranges
from repro.errors import OptimizationError
from repro.noisemodel.assignment import WordLengthAssignment
from repro.optimize.cost import (
    ASIC_COST_TABLE,
    COST_TABLES,
    DEFAULT_COST_TABLE,
    CostTable,
    HardwareCostModel,
)


def uniform_design(circuit_name: str, word_length: int = 10):
    circuit = get_circuit(circuit_name)
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    return circuit.graph, WordLengthAssignment.uniform(circuit.graph, word_length, ranges)


class TestMonotonicity:
    @pytest.mark.parametrize("circuit_name", ["quadratic", "poly3", "fir4", "iir_biquad"])
    def test_more_bits_never_cheaper_per_node(self, circuit_name):
        graph, assignment = uniform_design(circuit_name)
        model = HardwareCostModel()
        base = model.total(graph, assignment)
        for node in assignment:
            fmt = assignment.format_of(node)
            grown = assignment.with_fractional_bits(node, fmt.fractional_bits + 1)
            assert model.total(graph, grown) >= base, f"growing {node} made the design cheaper"

    @pytest.mark.parametrize("table", [DEFAULT_COST_TABLE, ASIC_COST_TABLE])
    def test_wider_uniform_designs_cost_strictly_more(self, table):
        circuit = get_circuit("poly3")
        ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
        model = HardwareCostModel(table)
        costs = [
            model.total(
                circuit.graph, WordLengthAssignment.uniform(circuit.graph, w, ranges)
            )
            for w in (6, 10, 14)
        ]
        assert costs[0] < costs[1] < costs[2]


class TestRegisterPricing:
    def test_delay_priced_at_stored_source_width(self):
        graph, assignment = uniform_design("iir_biquad")
        model = HardwareCostModel()
        base = model.total(graph, assignment)
        delays = [n.name for n in graph if n.op is OpType.DELAY]
        assert delays
        # A register's own nominal format is irrelevant: it stores its
        # source's word, so changing it must not change the price.
        mutated = assignment
        for delay in delays:
            fmt = mutated.format_of(delay)
            mutated = mutated.with_fractional_bits(delay, fmt.fractional_bits + 7)
        assert model.total(graph, mutated) == pytest.approx(base)

    def test_register_cost_follows_source(self):
        graph, assignment = uniform_design("fir4")
        model = HardwareCostModel()
        breakdown = model.price(graph, assignment)
        assert "delay" in breakdown.per_op
        assert breakdown.per_op["delay"] > 0.0


class TestBreakdown:
    def test_breakdown_sums_match_total(self):
        graph, assignment = uniform_design("matmul2")
        breakdown = HardwareCostModel().price(graph, assignment)
        assert breakdown.total == pytest.approx(sum(breakdown.per_node.values()))
        assert breakdown.total == pytest.approx(sum(breakdown.per_op.values()))
        assert breakdown.dominant(3)[0][1] >= breakdown.dominant(3)[-1][1]

    def test_ports_are_free(self):
        graph, assignment = uniform_design("quadratic")
        breakdown = HardwareCostModel().price(graph, assignment)
        for node in graph:
            if node.op in (OpType.INPUT, OpType.OUTPUT):
                assert node.name not in breakdown.per_node

    @pytest.mark.parametrize("table", [DEFAULT_COST_TABLE, ASIC_COST_TABLE])
    @pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
    def test_total_equals_price_total_exactly(self, circuit_name, table):
        # Builtin sum() is compensated from Python 3.12 on; total() must
        # still add in price()'s order (poly3, lut4, W=8 used to differ).
        circuit = get_circuit(circuit_name)
        ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
        model = HardwareCostModel(table)
        for word_length in range(8, 29):
            design = WordLengthAssignment.uniform(circuit.graph, word_length, ranges)
            total = model.total(circuit.graph, design)
            assert total == model.price(circuit.graph, design).total, word_length

    def test_missing_format_raises(self):
        graph, _ = uniform_design("quadratic")
        with pytest.raises(OptimizationError, match="no fixed-point format"):
            HardwareCostModel().total(graph, WordLengthAssignment())


class TestReprice:
    @pytest.mark.parametrize("circuit_name", ["quadratic", "fir4", "iir_biquad", "matmul2"])
    def test_incremental_delta_matches_full_repricing(self, circuit_name):
        graph, assignment = uniform_design(circuit_name)
        model = HardwareCostModel()
        base = model.total(graph, assignment)
        for node in assignment:
            if graph.node(node).op is OpType.DELAY:
                continue
            fmt = assignment.format_of(node)
            shaved = assignment.with_fractional_bits(node, max(0, fmt.fractional_bits - 1))
            delta = model.reprice(
                graph, assignment, shaved, model.affected_by(graph, node)
            )
            assert delta == pytest.approx(model.total(graph, shaved) - base)


class TestCostTable:
    def test_zero_table_prices_everything_free(self):
        graph, assignment = uniform_design("poly3")
        zero = DEFAULT_COST_TABLE.scaled(0.0, name="free")
        assert HardwareCostModel(zero).total(graph, assignment) == 0.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(OptimizationError, match=">= 0"):
            CostTable(add_per_bit=-1.0)
        with pytest.raises(OptimizationError, match=">= 0"):
            DEFAULT_COST_TABLE.scaled(-2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, value):
        with pytest.raises(OptimizationError, match="add_per_bit must be finite"):
            CostTable.from_dict({"add_per_bit": value})
        with pytest.raises(OptimizationError, match="scale factor must be finite"):
            DEFAULT_COST_TABLE.scaled(value)

    def test_overflowing_scale_names_the_coefficient(self):
        with pytest.raises(OptimizationError, match="div_per_bit_pair must be finite"):
            DEFAULT_COST_TABLE.scaled(1e308)

    def test_from_dict_round_trip_and_unknown_keys(self):
        table = CostTable.from_dict({"name": "custom", "mul_per_bit_pair": 1.25})
        assert table.mul_per_bit_pair == 1.25
        assert CostTable.from_dict(table.to_dict()) == table
        with pytest.raises(OptimizationError, match="unknown cost-table key"):
            CostTable.from_dict({"warp_drive": 9000})

    def test_reference_tables_registered(self):
        assert COST_TABLES["lut4"] is DEFAULT_COST_TABLE
        assert COST_TABLES["asic"] is ASIC_COST_TABLE
