"""Balanced edge-cut partitioning of dataflow graphs.

Decomposed word-length optimization splits a large (typically
deep-unrolled) DFG into near-equal pieces, solves each piece as an
independent subproblem, and reconciles the formats of signals crossing
partition boundaries.  The quality of that decomposition is governed by
two numbers this module controls:

* **balance** — the largest partition bounds the wall-clock of one
  sharded subproblem, so partitions should weigh about the same;
* **cut size** — every cut edge is a signal whose quantization format
  must be negotiated between two subproblems, so fewer cut edges mean a
  tighter decomposition.

``partition_graph`` is a deterministic two-phase heuristic: a split of
the graph's insertion order into contiguous chunks of near-equal weight
(insertion order is topologically valid by construction and preserves
the locality of structured circuits far better than the BFS-flavoured
``topological_order``), followed by bounded Kernighan–Lin-style
refinement passes that move individual boundary nodes between adjacent
partitions whenever the move strictly reduces the number of cut edges
without violating the balance bound.  All iteration orders derive from
the graph's insertion order and sorted node names, never from set or
hash order, so the result is identical across processes and
``PYTHONHASHSEED`` values.

``extract_partition`` materializes one partition as a standalone DFG
suitable for :class:`~repro.optimize.problem.OptimizationProblem`:

* out-of-partition operands become INPUT replicas (ranges are supplied
  by the caller from a whole-graph range analysis, which is consistent
  because range inference is forward-compositional);
* out-of-partition CONST operands are replicated as constants so the
  subproblem keeps modelling them as rounded coefficients rather than
  quantized inputs;
* every node consumed outside the partition (and every original OUTPUT
  pinned into it) gets an OUTPUT port, so the subgraph exposes exactly
  the signals whose formats the consensus step reconciles.

Only arithmetic and DELAY nodes carry weight: INPUT and CONST nodes do
no work and are replicated into consuming subgraphs anyway, so they are
pinned to the partition holding most of their consumers after
refinement, and OUTPUT ports are pinned to their producer.  For the
same reason ``cut_edges`` never contains a CONST-sourced edge —
constants are replicated, not negotiated across the cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.errors import DFGError

__all__ = [
    "Partitioning",
    "PartitionSubgraph",
    "partition_graph",
    "extract_partition",
]

#: Suffix appended to a boundary signal's name to build its OUTPUT port
#: in an extracted subgraph (original node names never contain it).
CUT_OUTPUT_SUFFIX = "::cut"


def _edges_of(graph: DFG) -> List[Tuple[str, str]]:
    """Every (producer, consumer) pair, delay back-edges included."""
    edges: List[Tuple[str, str]] = []
    for name in graph.names():
        node = graph.node(name)
        seen: set[str] = set()
        for operand in node.inputs:
            if operand in seen:
                continue  # e.g. x*x: one wire, one edge
            seen.add(operand)
            edges.append((operand, name))
    return edges


@dataclass(frozen=True)
class Partitioning:
    """A complete assignment of DFG nodes to ``parts`` partitions.

    Attributes
    ----------
    graph_name:
        Name of the partitioned graph (provenance only).
    parts:
        Number of partitions (ids ``0 .. parts-1``; every id non-empty).
    assignment:
        Node name -> partition id, for **every** node of the graph.
    cut_edges:
        Sorted (producer, consumer) pairs whose endpoints live in
        different partitions, excluding CONST producers (replicated,
        not negotiated) and OUTPUT consumers (ports, not work).
    sizes:
        Weight of each partition — its arithmetic + DELAY node count
        (INPUT/CONST/OUTPUT nodes weigh zero).
    """

    graph_name: str
    parts: int
    assignment: Mapping[str, int]
    cut_edges: Tuple[Tuple[str, str], ...]
    sizes: Tuple[int, ...]

    def nodes_in(self, part: int) -> List[str]:
        """Sorted names of the nodes assigned to ``part``."""
        return sorted(n for n, p in self.assignment.items() if p == part)

    def balance(self) -> float:
        """Largest partition weight over the ideal equal share."""
        total = sum(self.sizes)
        ideal = total / self.parts if self.parts else 0.0
        return max(self.sizes) / ideal if ideal else 1.0

    def to_doc(self) -> dict:
        """JSON-serializable snapshot (checkpoints, documents)."""
        return {
            "graph": self.graph_name,
            "parts": self.parts,
            "assignment": dict(sorted(self.assignment.items())),
            "cut_edges": [list(edge) for edge in self.cut_edges],
            "sizes": list(self.sizes),
        }


def partition_graph(
    graph: DFG,
    parts: int,
    *,
    balance_tolerance: float = 0.3,
    refine_passes: int = 4,
) -> Partitioning:
    """Split ``graph`` into ``parts`` balanced pieces with a small edge cut.

    Parameters
    ----------
    graph:
        Any DFG (combinational or sequential; partitioning treats delay
        back-edges like ordinary edges).
    parts:
        Requested partition count; must be ``1 <= parts`` and no larger
        than the number of weight-carrying (non-OUTPUT) nodes.
    balance_tolerance:
        Refinement may not grow a partition beyond
        ``ceil(ideal * (1 + balance_tolerance))`` weight, and may never
        empty one.  The initial contiguous split is balanced to within
        one node regardless of this setting.
    refine_passes:
        Upper bound on boundary-refinement sweeps; refinement stops
        early once a sweep moves nothing.
    """
    if parts < 1:
        raise DFGError(f"partition count must be >= 1, got {parts}")
    graph.topological_order()  # raises CycleError on malformed graphs
    order = graph.names()  # insertion order: topological, locality-preserving
    weightless = (OpType.INPUT, OpType.CONST, OpType.OUTPUT)
    weights = {
        name: 0 if graph.node(name).op in weightless else 1 for name in order
    }
    total = sum(weights.values())
    if total == 0:
        raise DFGError(f"graph {graph.name!r} has no weight-carrying nodes")
    if parts > total:
        raise DFGError(
            f"cannot split {total} weight-carrying nodes of {graph.name!r} "
            f"into {parts} partitions"
        )

    # Phase 1: contiguous topological chunks of near-equal weight.  The
    # greedy rule "close the chunk once it reaches the remaining average"
    # keeps every chunk within one node of the ideal share.
    assignment: Dict[str, int] = {}
    part = 0
    acc = 0
    remaining = total
    for name in order:
        if weights[name] == 0:
            continue  # sources and ports are pinned after refinement
        assignment[name] = part
        acc += 1
        remaining -= 1
        if part < parts - 1 and acc >= remaining / (parts - 1 - part) - 1e-9:
            # Enough weight for this chunk; the rest must still be able
            # to give every later partition at least one node.
            if remaining >= parts - 1 - part and acc >= 1:
                part += 1
                acc = 0

    sizes = [0] * parts
    for name, pid in assignment.items():
        sizes[pid] += 1

    # Phase 2: bounded KL-style refinement on weight-carrying nodes.
    edges = [
        (src, dst)
        for src, dst in _edges_of(graph)
        if weights[src] and weights[dst]
    ]
    neighbours: Dict[str, List[str]] = {name: [] for name in assignment}
    for src, dst in edges:
        if src != dst:
            neighbours[src].append(dst)
            neighbours[dst].append(src)
    ideal = total / parts
    cap = max(1, int(-(-ideal * (1.0 + balance_tolerance) // 1)))  # ceil
    sweep_order = [name for name in order if weights[name]]
    for _ in range(max(0, refine_passes)):
        moved = False
        for name in sweep_order:
            here = assignment[name]
            if sizes[here] <= 1:
                continue  # never empty a partition
            tallies: Dict[int, int] = {}
            for other in neighbours[name]:
                other_pid = assignment[other]
                tallies[other_pid] = tallies.get(other_pid, 0) + 1
            internal = tallies.get(here, 0)
            best_pid, best_gain = here, 0
            for pid in sorted(tallies):
                if pid == here or sizes[pid] + 1 > cap:
                    continue
                gain = tallies[pid] - internal
                if gain > best_gain:
                    best_pid, best_gain = pid, gain
            if best_pid != here:
                assignment[name] = best_pid
                sizes[here] -= 1
                sizes[best_pid] += 1
                moved = True
        if not moved:
            break

    # Weight-0 nodes follow the work: INPUT/CONST go where most of their
    # consumers live (they are replicated into other consumers' subgraphs
    # anyway), OUTPUT ports go with their producer.
    consumers: Dict[str, List[str]] = {name: [] for name in order}
    for src, dst in _edges_of(graph):
        consumers[src].append(dst)
    for name in order:
        node = graph.node(name)
        if node.op in (OpType.INPUT, OpType.CONST):
            tally: Dict[int, int] = {}
            for consumer in consumers[name]:
                pid = assignment.get(consumer)
                if pid is not None:
                    tally[pid] = tally.get(pid, 0) + 1
            if tally:
                assignment[name] = min(
                    sorted(tally), key=lambda pid: (-tally[pid], pid)
                )
            else:  # dangling source: park it deterministically
                assignment[name] = 0
    for name in order:
        node = graph.node(name)
        if node.op is OpType.OUTPUT:
            assignment[name] = assignment[node.inputs[0]]

    cut = tuple(
        sorted(
            (src, dst)
            for src, dst in _edges_of(graph)
            if assignment[src] != assignment[dst]
            and graph.node(src).op is not OpType.CONST
            and graph.node(dst).op is not OpType.OUTPUT
        )
    )
    return Partitioning(
        graph_name=graph.name,
        parts=parts,
        assignment=dict(assignment),
        cut_edges=cut,
        sizes=tuple(sizes),
    )


@dataclass(frozen=True)
class PartitionSubgraph:
    """One partition materialized as a standalone DFG.

    Attributes
    ----------
    part:
        Partition id this subgraph was extracted from.
    graph:
        The standalone DFG (validates; combinational iff the slice is).
    boundary_inputs:
        Original node names materialized as INPUT replicas (cut signals
        produced elsewhere, plus replicated global inputs).
    replicated_consts:
        Original CONST names replicated into this subgraph.
    boundary_outputs:
        Original node name -> OUTPUT port name for every signal this
        partition exports (cut signals it produces, plus original
        outputs pinned here).
    input_ranges:
        Ranges for every INPUT of the subgraph, taken from the caller's
        whole-graph range analysis.
    """

    part: int
    graph: DFG
    boundary_inputs: Tuple[str, ...]
    replicated_consts: Tuple[str, ...]
    boundary_outputs: Mapping[str, str]
    input_ranges: Mapping[str, Tuple[float, float]] = field(default_factory=dict)


def extract_partition(
    graph: DFG,
    partitioning: Partitioning,
    part: int,
    ranges: Mapping[str, object],
) -> PartitionSubgraph:
    """Materialize partition ``part`` of ``graph`` as its own DFG.

    ``ranges`` maps node names to objects with ``lo``/``hi`` attributes
    (:class:`~repro.intervals.interval.Interval` from a whole-graph
    range analysis) or ``(lo, hi)`` pairs; it must cover every signal
    that crosses into the partition.
    """
    if not 0 <= part < partitioning.parts:
        raise DFGError(
            f"partition id {part} out of range 0..{partitioning.parts - 1}"
        )

    def bounds(name: str) -> Tuple[float, float]:
        try:
            interval = ranges[name]
        except KeyError as exc:
            raise DFGError(
                f"no range available for boundary signal {name!r}"
            ) from exc
        if isinstance(interval, tuple):
            return float(interval[0]), float(interval[1])
        return float(interval.lo), float(interval.hi)  # type: ignore[attr-defined]

    assignment = partitioning.assignment
    members = [
        name
        for name in graph.topological_order()
        if assignment.get(name) == part
    ]
    member_set = set(members)
    sub = DFG(name=f"{graph.name}[p{part}]")
    boundary_inputs: List[str] = []
    replicated_consts: List[str] = []
    input_ranges: Dict[str, Tuple[float, float]] = {}
    pending_delays: List[Tuple[str, str]] = []
    materialized: set[str] = set()

    def materialize_operand(operand: str) -> None:
        if operand in member_set or operand in materialized:
            return
        materialized.add(operand)
        source = graph.node(operand)
        if source.op is OpType.CONST:
            sub.add_const(float(source.value), name=operand, label=source.label)
            replicated_consts.append(operand)
        else:
            sub.add_input(operand, label=source.label)
            boundary_inputs.append(operand)
            input_ranges[operand] = bounds(operand)

    for name in members:
        node = graph.node(name)
        if node.op is OpType.OUTPUT:
            continue  # re-attached below, after all producers exist
        if node.op is OpType.INPUT:
            sub.add_input(name, label=node.label)
            input_ranges[name] = bounds(name)
            continue
        if node.op is OpType.CONST:
            sub.add_const(float(node.value), name=name, label=node.label)
            continue
        if node.op is OpType.DELAY:
            sub.add_delay(name=name)
            pending_delays.append((name, node.inputs[0]))
            continue
        for operand in node.inputs:
            materialize_operand(operand)
        sub.add_op(node.op, *node.inputs, name=name, label=node.label)

    for delay_name, source in pending_delays:
        materialize_operand(source)
        sub.connect_delay(delay_name, source)

    # Export every computed signal someone else consumes, plus the
    # original outputs.  INPUT/CONST producers are replicated into the
    # consuming subgraph instead, so they never need an export port.
    consumed_outside = {
        src
        for src, dst in _edges_of(graph)
        if src in member_set
        and assignment.get(dst) != part
        and graph.node(dst).op is not OpType.OUTPUT
        and graph.node(src).op not in (OpType.INPUT, OpType.CONST)
    }
    boundary_outputs: Dict[str, str] = {}
    for name in members:
        node = graph.node(name)
        if node.op is OpType.OUTPUT:
            sub.add_output(node.inputs[0], name=name, label=node.label)
            boundary_outputs[node.inputs[0]] = name
    for source in sorted(consumed_outside):
        if source in boundary_outputs:
            continue
        if sub.node(source).op is OpType.OUTPUT:  # pragma: no cover - defensive
            continue
        port = f"{source}{CUT_OUTPUT_SUFFIX}"
        sub.add_output(source, name=port)
        boundary_outputs[source] = port
    if not boundary_outputs:
        # A partition nobody consumes (degenerate but legal): expose its
        # topologically last member so the subproblem has an objective.
        last = members[-1]
        port = f"{last}{CUT_OUTPUT_SUFFIX}"
        sub.add_output(last, name=port)
        boundary_outputs[last] = port

    sub.validate()
    return PartitionSubgraph(
        part=part,
        graph=sub,
        boundary_inputs=tuple(sorted(boundary_inputs)),
        replicated_consts=tuple(sorted(replicated_consts)),
        boundary_outputs=dict(sorted(boundary_outputs.items())),
        input_ranges=input_ranges,
    )
