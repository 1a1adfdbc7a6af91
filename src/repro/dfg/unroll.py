"""Finite-horizon unrolling of sequential dataflow graphs.

A sequential graph (one containing ``DELAY`` registers) describes an
infinite time-stepped computation.  Unrolling it for ``steps`` time steps
produces a purely *combinational* graph in which every node of the
original graph appears once per step, every input port becomes one input
per step, and each delay register is replaced by a wire from the previous
step's value of its source (step 0 reads the zero initial state).

This is the bridge that lets the enclosure-algebra analyses (IA / AA /
Taylor / PNA), which are naturally single-shot, handle filters with
feedback: analyzing the final step of an unrolled graph bounds the error
after ``steps`` samples, which the time-stepped Monte-Carlo simulators can
validate sample-for-sample (both start from zero state).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.errors import DFGError

__all__ = ["UnrolledGraph", "unroll_sequential", "instance_name", "base_name"]


def instance_name(base: str, step: int) -> str:
    """Name of the step-``step`` instance of node ``base``."""
    return f"{base}@{step}"


def base_name(instance: str) -> str:
    """Original node name of an unrolled instance (inverse of :func:`instance_name`)."""
    return instance.split("@", 1)[0]


class UnrolledGraph:
    """An unrolled combinational graph plus the bookkeeping to map back.

    Attributes
    ----------
    graph:
        The combinational :class:`DFG` covering all steps.
    steps:
        The unrolling horizon.
    instances:
        Mapping of original node name to its per-step instance names.
        Delay nodes map to the name of the value they forward at each
        step (a zero constant at step 0, the source's previous-step
        instance afterwards) rather than to nodes of their own.
    """

    def __init__(
        self,
        graph: DFG,
        steps: int,
        instances: Dict[str, List[str]],
        delay_bases: frozenset[str] = frozenset(),
    ) -> None:
        self.graph = graph
        self.steps = steps
        self.instances = instances
        self._delay_bases = delay_bases

    @property
    def delay_bases(self) -> frozenset[str]:
        """Original delay-register names (their instances alias other nodes)."""
        return self._delay_bases

    def instances_of(self, base: str) -> List[str]:
        """All per-step instance names of an original node."""
        try:
            return list(self.instances[base])
        except KeyError as exc:
            raise DFGError(f"unknown original node {base!r}") from exc

    def final_instance(self, base: str) -> str:
        """The last-step instance of an original node."""
        return self.instances_of(base)[-1]

    def map_formats(self, formats: Mapping[str, object]) -> Dict[str, object]:
        """Replicate a per-node mapping (e.g. fixed-point formats) per step.

        Delay nodes are skipped: a register forwards an already-quantized
        value, so its instances are aliases of other nodes' instances and
        must not be quantized twice.
        """
        mapped: Dict[str, object] = {}
        for base, value in formats.items():
            if base not in self.instances or base in self._delay_bases:
                continue
            for inst in self.instances[base]:
                mapped[inst] = value
        return mapped


def unroll_sequential(graph: DFG, steps: int, name: str | None = None) -> UnrolledGraph:
    """Unroll ``graph`` over ``steps`` time steps into a combinational DFG.

    Constants are shared across steps; inputs become one input port per
    step (``x@0``, ``x@1``, ...); OUTPUT nodes are materialized for the
    final step only, so the unrolled graph has the same output count as
    the original.  Combinational graphs are unrolled with ``steps=1``
    regardless of the requested horizon (extra steps would be identical).
    """
    if steps < 1:
        raise DFGError(f"unroll steps must be >= 1, got {steps}")
    if not graph.is_sequential:
        steps = 1

    unrolled = DFG(name or f"{graph.name}_x{steps}")
    instances: Dict[str, List[str]] = {node.name: [] for node in graph}
    delay_bases = frozenset(graph.delays())

    const_names: Dict[str, str] = {}
    zero_name: str | None = None
    order = graph.topological_order()

    for t in range(steps):
        for base in order:
            node = graph.node(base)
            if node.op is OpType.CONST:
                if base not in const_names:
                    const_names[base] = unrolled.add_const(
                        float(node.value), name=instance_name(base, 0), label=node.label
                    )
                instances[base].append(const_names[base])
            elif node.op is OpType.INPUT:
                instances[base].append(
                    unrolled.add_input(instance_name(base, t), label=node.label)
                )
            elif node.op is OpType.DELAY:
                if t == 0:
                    if zero_name is None:
                        zero_name = unrolled.add_const(0.0, name="__state0__")
                    instances[base].append(zero_name)
                else:
                    source = node.inputs[0]
                    instances[base].append(instances[source][t - 1])
            elif node.op is OpType.OUTPUT:
                if t == steps - 1:
                    source = node.inputs[0]
                    instances[base].append(
                        unrolled.add_output(
                            instances[source][t], name=instance_name(base, t), label=node.label
                        )
                    )
            else:
                operands = [instances[op][t] for op in node.inputs]
                instances[base].append(
                    unrolled.add_node(
                        node.op, operands, name=instance_name(base, t), label=node.label
                    )
                )

    unrolled.validate()
    return UnrolledGraph(unrolled, steps, instances, delay_bases)
