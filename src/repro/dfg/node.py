"""Node and operation types for dataflow graphs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import DFGError

__all__ = ["OpType", "Node", "OP_ARITY", "ARITHMETIC_OPS"]


class OpType(str, enum.Enum):
    """Operation performed by a DFG node.

    ``DELAY`` is a unit sample delay (a register holding the previous
    time-step value), which is what makes filters and difference
    equations expressible; a graph without delays is purely
    combinational.
    """

    INPUT = "input"
    CONST = "const"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    NEG = "neg"
    SQUARE = "square"
    SQRT = "sqrt"
    EXP = "exp"
    LOG = "log"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    MUX = "mux"
    DELAY = "delay"
    OUTPUT = "output"


#: Number of operands each operation expects.  ``MUX`` takes
#: ``(select, a, b)`` and forwards ``a`` when ``select >= 0``, ``b``
#: otherwise (a sign-predicated 2:1 selector).
OP_ARITY: dict[OpType, int] = {
    OpType.INPUT: 0,
    OpType.CONST: 0,
    OpType.ADD: 2,
    OpType.SUB: 2,
    OpType.MUL: 2,
    OpType.DIV: 2,
    OpType.NEG: 1,
    OpType.SQUARE: 1,
    OpType.SQRT: 1,
    OpType.EXP: 1,
    OpType.LOG: 1,
    OpType.ABS: 1,
    OpType.MIN: 2,
    OpType.MAX: 2,
    OpType.MUX: 3,
    OpType.DELAY: 1,
    OpType.OUTPUT: 1,
}

#: Operations that allocate an arithmetic functional unit during synthesis.
ARITHMETIC_OPS = frozenset(
    {
        OpType.ADD,
        OpType.SUB,
        OpType.MUL,
        OpType.DIV,
        OpType.NEG,
        OpType.SQUARE,
        OpType.SQRT,
        OpType.EXP,
        OpType.LOG,
        OpType.ABS,
        OpType.MIN,
        OpType.MAX,
        OpType.MUX,
    }
)


@dataclass(frozen=True, slots=True)
class Node:
    """A single operation (or input/constant/output port) in a DFG.

    Attributes
    ----------
    name:
        Unique identifier within the graph.
    op:
        The node's :class:`OpType`.
    inputs:
        Names of the operand nodes, in operand order.
    value:
        Constant value for ``CONST`` nodes (``None`` otherwise).
    label:
        Optional human-readable annotation carried into reports.
    """

    name: str
    op: OpType
    inputs: Tuple[str, ...] = field(default_factory=tuple)
    value: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise DFGError("node name must be non-empty")
        expected = OP_ARITY[self.op]
        if len(self.inputs) != expected:
            raise DFGError(
                f"node {self.name!r} ({self.op.value}) expects {expected} operand(s), "
                f"got {len(self.inputs)}"
            )
        if self.op is OpType.CONST:
            if self.value is None:
                raise DFGError(f"const node {self.name!r} needs a value")
        elif self.value is not None:
            raise DFGError(f"non-const node {self.name!r} must not carry a value")

    @property
    def is_arithmetic(self) -> bool:
        """True for nodes that consume an arithmetic functional unit."""
        return self.op in ARITHMETIC_OPS
