"""Dataflow graphs: the hardware-level description the analyses operate on.

A :class:`DFG` is a directed graph of arithmetic operations (the
"computation tree" of the paper) annotated per node with fixed-point
characteristics.  The builder's wires and the trace frontend turn
hand-written design descriptions into DFGs; the evaluators run them in floating point,
in any enclosure algebra, or bit-true in fixed point; the range analysis
derives the integer bit-widths required at every node.
"""

from repro.dfg.builder import DFGBuilder, Wire
from repro.dfg.evaluate import (
    evaluate_combinational,
    simulate,
    simulate_batch,
    simulate_fixed_point,
    simulate_fixed_point_batch,
)
from repro.dfg.graph import DFG
from repro.dfg.node import Node, OpType
from repro.dfg.partition import (
    Partitioning,
    PartitionSubgraph,
    extract_partition,
    partition_graph,
)
from repro.dfg.range_analysis import formats_for_ranges, infer_ranges
from repro.dfg.trace import TracedCircuit, trace, unpack_circuit
from repro.dfg.unroll import UnrolledGraph, unroll_sequential

__all__ = [
    "DFG",
    "Node",
    "OpType",
    "trace",
    "TracedCircuit",
    "unpack_circuit",
    "DFGBuilder",
    "Wire",
    "evaluate_combinational",
    "simulate",
    "simulate_fixed_point",
    "simulate_batch",
    "simulate_fixed_point_batch",
    "UnrolledGraph",
    "unroll_sequential",
    "infer_ranges",
    "formats_for_ranges",
    "Partitioning",
    "PartitionSubgraph",
    "partition_graph",
    "extract_partition",
]
