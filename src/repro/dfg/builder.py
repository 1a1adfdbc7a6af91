"""The builder: the wire-level front end for constructing dataflow graphs.

:class:`DFGBuilder` provides :class:`Wire` handles with operator
overloading, which reads like a tiny hardware description language and
is how the filter / FFT designs are written.  The trace frontend
(:mod:`repro.dfg.trace`) executes a plain Python function over these
wires.
"""

from __future__ import annotations

from typing import Dict, Iterable, Union

from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.errors import DFGError

__all__ = ["Wire", "DFGBuilder"]

Number = Union[int, float]


class Wire:
    """A handle to a DFG node that supports arithmetic operators.

    Wires are produced by a :class:`DFGBuilder`; combining two wires adds
    the corresponding operation node to the underlying graph and returns a
    new wire for its result.
    """

    __slots__ = ("builder", "node_name")

    def __init__(self, builder: "DFGBuilder", node_name: str) -> None:
        self.builder = builder
        self.node_name = node_name

    # ------------------------------------------------------------------ #
    def _coerce(self, other: "Wire | Number") -> "Wire":
        if isinstance(other, Wire):
            if other.builder is not self.builder:
                raise DFGError("cannot combine wires from different builders")
            return other
        if isinstance(other, (int, float)):
            return self.builder.const(float(other))
        raise DFGError(f"cannot combine Wire with {type(other).__name__}")

    def _binary(self, other: "Wire | Number", op: OpType, reverse: bool = False) -> "Wire":
        other = self._coerce(other)
        left, right = (other, self) if reverse else (self, other)
        name = self.builder.graph.add_op(op, left.node_name, right.node_name)
        return Wire(self.builder, name)

    def __add__(self, other: "Wire | Number") -> "Wire":
        return self._binary(other, OpType.ADD)

    def __radd__(self, other: "Wire | Number") -> "Wire":
        return self._binary(other, OpType.ADD, reverse=True)

    def __sub__(self, other: "Wire | Number") -> "Wire":
        return self._binary(other, OpType.SUB)

    def __rsub__(self, other: "Wire | Number") -> "Wire":
        return self._binary(other, OpType.SUB, reverse=True)

    def __mul__(self, other: "Wire | Number") -> "Wire":
        return self._binary(other, OpType.MUL)

    def __rmul__(self, other: "Wire | Number") -> "Wire":
        return self._binary(other, OpType.MUL, reverse=True)

    def __truediv__(self, other: "Wire | Number") -> "Wire":
        return self._binary(other, OpType.DIV)

    def __rtruediv__(self, other: "Wire | Number") -> "Wire":
        return self._binary(other, OpType.DIV, reverse=True)

    def __neg__(self) -> "Wire":
        name = self.builder.graph.add_neg(self.node_name)
        return Wire(self.builder, name)

    def square(self) -> "Wire":
        """The dependency-aware square of this wire."""
        name = self.builder.graph.add_square(self.node_name)
        return Wire(self.builder, name)

    def sqrt(self) -> "Wire":
        """``sqrt`` of this wire (range must stay non-negative)."""
        return Wire(self.builder, self.builder.graph.add_sqrt(self.node_name))

    def exp(self) -> "Wire":
        """``exp`` of this wire."""
        return Wire(self.builder, self.builder.graph.add_exp(self.node_name))

    def log(self) -> "Wire":
        """``log`` of this wire (range must stay strictly positive)."""
        return Wire(self.builder, self.builder.graph.add_log(self.node_name))

    def __abs__(self) -> "Wire":
        return Wire(self.builder, self.builder.graph.add_abs(self.node_name))

    def minimum(self, other: "Wire | Number") -> "Wire":
        """``min(self, other)``."""
        return self._binary(other, OpType.MIN)

    def maximum(self, other: "Wire | Number") -> "Wire":
        """``max(self, other)``."""
        return self._binary(other, OpType.MAX)

    def mux(self, a: "Wire | Number", b: "Wire | Number") -> "Wire":
        """``self >= 0 ? a : b`` — this wire is the selector."""
        a = self._coerce(a)
        b = self._coerce(b)
        name = self.builder.graph.add_mux(self.node_name, a.node_name, b.node_name)
        return Wire(self.builder, name)

    def delay(self, steps: int = 1) -> "Wire":
        """This signal delayed by ``steps`` unit sample delays."""
        if steps < 1:
            raise DFGError(f"delay steps must be >= 1, got {steps}")
        current = self.node_name
        for _ in range(steps):
            current = self.builder.graph.add_delay(current)
        return Wire(self.builder, current)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Wire({self.node_name!r})"


class DFGBuilder:
    """Builds a :class:`DFG` through :class:`Wire` handles."""

    def __init__(self, name: str = "dfg") -> None:
        self.graph = DFG(name)
        self._const_cache: Dict[float, str] = {}

    def input(self, name: str) -> Wire:
        """Declare an external input port."""
        return Wire(self, self.graph.add_input(name))

    def inputs(self, names: Iterable[str]) -> list[Wire]:
        """Declare several input ports at once."""
        return [self.input(name) for name in names]

    def const(self, value: Number, label: str = "") -> Wire:
        """A constant wire; identical constants are shared."""
        value = float(value)
        if value in self._const_cache and not label:
            return Wire(self, self._const_cache[value])
        name = self.graph.add_const(value, label=label)
        self._const_cache.setdefault(value, name)
        return Wire(self, name)

    def output(self, wire: Wire, name: str | None = None, label: str = "") -> str:
        """Mark a wire as a design output; returns the OUTPUT node name."""
        return self.graph.add_output(wire.node_name, name=name, label=label)

    def sum_of(self, wires: Iterable[Wire]) -> Wire:
        """Balanced-tree sum of several wires (shorter critical path than a chain)."""
        items = list(wires)
        if not items:
            raise DFGError("sum_of requires at least one wire")
        while len(items) > 1:
            paired = []
            for i in range(0, len(items) - 1, 2):
                paired.append(items[i] + items[i + 1])
            if len(items) % 2 == 1:
                paired.append(items[-1])
            items = paired
        return items[0]

    def delayed_taps(self, wire: Wire, count: int) -> list[Wire]:
        """``[x, x.z^-1, x.z^-2, ...]`` — the tapped delay line used by filters."""
        taps = [wire]
        for _ in range(count - 1):
            taps.append(taps[-1].delay())
        return taps

    def build(self) -> DFG:
        """Validate and return the underlying graph."""
        self.graph.validate()
        return self.graph

