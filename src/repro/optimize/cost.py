"""HLS hardware cost model: pricing a word-length assignment per operator.

The optimizers need an objective that reacts to every fractional bit they
shave, so the model prices each dataflow node from the *operand* word
lengths of the assignment, using classic resource shapes:

* ripple-carry adders / subtractors grow linearly in the wider operand;
* array multipliers grow with the product of the operand widths (a
  squarer reuses the symmetric half of its partial-product array);
* dividers are multiplier-shaped with a larger per-cell constant;
* every arithmetic op additionally pays per *result* bit for its
  rounding logic and output drivers (``result_per_bit``), so the format
  a node rounds into is priced even when no downstream op is widened;
* delay registers store their *source's* word (a register forwards an
  already-quantized value, so it is priced at the stored width — shaving
  a register's own nominal format is neither a hardware saving nor a
  noise source);
* constants cost ROM/wiring per stored bit; I/O ports are free.

Cost-table format
-----------------
A :class:`CostTable` is a plain frozen dataclass of non-negative
coefficients (area units per bit, per partial-product cell, or per
operator).  Two reference tables ship with the package —
``DEFAULT_COST_TABLE`` (4-input-LUT FPGA flavored) and
``ASIC_COST_TABLE`` (NAND2-equivalent gate counts) — and any calibration
can be supplied via ``CostTable.from_dict`` or a literal ``CostTable``:

>>> CostTable.from_dict({"name": "my-lib", "mul_per_bit_pair": 1.5})
CostTable(name='my-lib', ...)

Every coefficient must be finite and ``>= 0`` so the model stays
*monotone*: adding bits anywhere can never make the design cheaper.

Totals
------
:meth:`HardwareCostModel.price`, :meth:`HardwareCostModel.total` and
:class:`CostLedger` all add per-node prices left to right in graph order
through one helper, :func:`repro.utils.mathutils.summed` (a zero price,
which ``price`` leaves out, never moves the running total).  A design
therefore has one total, bit for bit, whichever of them priced it.
Builtin ``sum`` is not used: from Python 3.12 on it compensates float
rounding and would disagree in the last ulp.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.dfg.graph import DFG
from repro.dfg.node import Node, OpType
from repro.errors import OptimizationError
from repro.fixedpoint.format import FixedPointFormat
from repro.noisemodel.assignment import WordLengthAssignment, changed_formats
from repro.utils.mathutils import summed

__all__ = [
    "CostTable",
    "CostBreakdown",
    "CostLedger",
    "HardwareCostModel",
    "DEFAULT_COST_TABLE",
    "ASIC_COST_TABLE",
    "COST_TABLES",
]


@dataclass(frozen=True)
class CostTable:
    """Per-operator area coefficients (see module docstring for the format)."""

    name: str = "custom"
    add_per_bit: float = 1.0  # full adder cell, per result bit
    mul_per_bit_pair: float = 0.55  # partial-product cell, per Wa*Wb
    div_per_bit_pair: float = 2.2  # restoring-divider cell, per Wa*Wb
    sqrt_per_bit_pair: float = 1.2  # digit-recurrence root cell, per W*(W+1)/2
    exp_per_bit_pair: float = 0.9  # table + interpolation multiplier, per W^2
    log_per_bit_pair: float = 0.9  # table + interpolation multiplier, per W^2
    neg_per_bit: float = 0.45  # two's-complement negate, per bit
    abs_per_bit: float = 0.5  # conditional negate (sign mux + adder), per bit
    minmax_per_bit: float = 1.1  # comparator + 2:1 select, per bit
    mux_per_bit: float = 0.5  # sign-predicated 2:1 select, per data bit
    register_per_bit: float = 0.6  # flip-flop, per stored bit
    const_per_bit: float = 0.12  # ROM / hardwired constant, per bit
    result_per_bit: float = 0.3  # rounding logic + output drivers, per result bit
    op_overhead: float = 2.0  # fixed control & steering per arithmetic op

    def __post_init__(self) -> None:
        for key, value in asdict(self).items():
            if key == "name":
                continue
            # NaN fails every comparison, so test finiteness explicitly: a
            # NaN price would make every "cheaper than" test false.
            if not math.isfinite(float(value)) or float(value) < 0.0:
                raise OptimizationError(
                    f"cost-table coefficient {key} must be finite and >= 0, got {value!r}"
                )

    def scaled(self, factor: float, name: str | None = None) -> "CostTable":
        """A copy with every coefficient multiplied by ``factor``."""
        if not math.isfinite(factor) or factor < 0.0:
            raise OptimizationError(f"scale factor must be finite and >= 0, got {factor}")
        fields = {
            key: value * factor for key, value in asdict(self).items() if key != "name"
        }
        return CostTable(name=name or f"{self.name}*{factor:g}", **fields)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CostTable":
        """Build a table from a plain mapping (unknown keys raise)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = [k for k in data if k not in known]
        if unknown:
            raise OptimizationError(
                f"unknown cost-table key(s): {', '.join(sorted(unknown))}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view (JSON-friendly)."""
        return asdict(self)


#: LUT-flavored default calibration (relative area units).
DEFAULT_COST_TABLE = CostTable(name="lut4-fpga")

#: NAND2-equivalent gate counts for a generic standard-cell flow.
ASIC_COST_TABLE = CostTable(
    name="asic-nand2",
    add_per_bit=9.0,
    mul_per_bit_pair=6.0,
    div_per_bit_pair=24.0,
    sqrt_per_bit_pair=13.0,
    exp_per_bit_pair=9.5,
    log_per_bit_pair=9.5,
    neg_per_bit=4.5,
    abs_per_bit=5.0,
    minmax_per_bit=10.0,
    mux_per_bit=4.0,
    register_per_bit=8.0,
    const_per_bit=0.5,
    result_per_bit=2.5,
    op_overhead=6.0,
)

#: Named reference tables, selectable from CLIs.
COST_TABLES: Dict[str, CostTable] = {
    "lut4": DEFAULT_COST_TABLE,
    "asic": ASIC_COST_TABLE,
}


@dataclass(frozen=True)
class CostBreakdown:
    """Total and per-node / per-op-class area of one priced design."""

    total: float
    per_node: Dict[str, float] = field(default_factory=dict)
    per_op: Dict[str, float] = field(default_factory=dict)

    def dominant(self, count: int = 5) -> list[tuple[str, float]]:
        """The ``count`` most expensive nodes, descending."""
        ranked = sorted(self.per_node.items(), key=lambda item: item[1], reverse=True)
        return ranked[:count]

    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return {
            "total": self.total,
            "per_node": dict(self.per_node),
            "per_op": dict(self.per_op),
        }


class HardwareCostModel:
    """Prices a :class:`WordLengthAssignment` on a dataflow graph.

    Sequential designs are priced on the *original* (rolled) graph — the
    hardware is one instance of each operator plus the delay registers,
    regardless of the unrolling horizon the error analysis uses.

    **The node_cost contract.**  :meth:`node_cost` may read only the
    node's own format and the word lengths of its operands, each resolved
    through DELAY chains to the producing node.  So a format change at a
    node can move the price of exactly the nodes :meth:`affected_by`
    returns for it.  :class:`CostLedger` and greedy's incremental shave
    ranking re-price only those nodes; a subclass whose ``node_cost``
    reads anything else breaks both.
    """

    def __init__(self, table: CostTable = DEFAULT_COST_TABLE) -> None:
        self.table = table

    # ------------------------------------------------------------------ #
    def _format_of(self, assignment: WordLengthAssignment, name: str) -> FixedPointFormat:
        fmt = assignment.formats.get(name)
        if fmt is None:
            raise OptimizationError(
                f"node {name!r} has no fixed-point format to price; the cost model "
                "needs an assignment covering every non-OUTPUT node"
            )
        return fmt

    def _operand_width(self, graph: DFG, assignment: WordLengthAssignment, name: str) -> int:
        """Word length a node presents to its consumers.

        DELAY chains are resolved to the producing node: a register
        forwards its source's already-quantized word, so its own nominal
        format is irrelevant to both the noise model and the hardware.
        """
        seen = set()
        while graph.node(name).op is OpType.DELAY:
            if name in seen:
                raise OptimizationError(
                    f"delay cycle through {name!r}; cannot size the register"
                )
            seen.add(name)
            name = graph.node(name).inputs[0]
        return self._format_of(assignment, name).word_length

    def node_cost(self, graph: DFG, node: Node, assignment: WordLengthAssignment) -> float:
        """Area of one node under ``assignment`` (0 for pure ports)."""
        table = self.table
        if node.op in (OpType.INPUT, OpType.OUTPUT):
            return 0.0
        if node.op is OpType.CONST:
            return table.const_per_bit * self._format_of(assignment, node.name).word_length
        if node.op is OpType.DELAY:
            return table.register_per_bit * self._operand_width(graph, assignment, node.name)
        widths = [self._operand_width(graph, assignment, operand) for operand in node.inputs]
        rounding = (
            table.op_overhead
            + table.result_per_bit * self._format_of(assignment, node.name).word_length
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
            # The select contributes only its sign bit; the datapath pays
            # per bit of the wider forwarded operand.
            return rounding + table.mux_per_bit * max(widths[1], widths[2])
        raise OptimizationError(f"cannot price operation {node.op!r}")  # pragma: no cover

    def price(self, graph: DFG, assignment: WordLengthAssignment) -> CostBreakdown:
        """Price the whole design and return the breakdown."""
        per_node: Dict[str, float] = {}
        per_op: Dict[str, float] = {}
        for node in graph:
            cost = self.node_cost(graph, node, assignment)
            if cost == 0.0:
                continue
            per_node[node.name] = cost
            per_op[node.op.value] = per_op.get(node.op.value, 0.0) + cost
        # per_node holds the nonzero prices in graph order.
        return CostBreakdown(total=summed(per_node.values()), per_node=per_node, per_op=per_op)

    def total(self, graph: DFG, assignment: WordLengthAssignment) -> float:
        """Total area only: :meth:`price`'s ``total``, without the breakdown dicts."""
        return summed(self.node_cost(graph, node, assignment) for node in graph)

    @staticmethod
    def affected_by(graph: DFG, node: str) -> Tuple[str, ...]:
        """Nodes whose price can change when ``node``'s format changes.

        The node itself, its direct consumers (operand widths), and —
        because registers forward their source's width — everything a
        downstream DELAY chain re-exposes that width to.  The nodes come
        in discovery order, which depends only on the graph's insertion
        order, so summing over them is independent of ``PYTHONHASHSEED``.
        """
        affected = {node: None}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for successor in graph.successors(current):
                if successor in affected:
                    continue
                affected[successor] = None
                if graph.node(successor).op is OpType.DELAY:
                    frontier.append(successor)
        return tuple(affected)

    def reprice(
        self,
        graph: DFG,
        before: WordLengthAssignment,
        after: WordLengthAssignment,
        nodes: Iterable[str],
    ) -> float:
        """Cost delta (after - before) when only ``nodes`` can have changed.

        Pass :meth:`affected_by` of every mutated node; equals
        ``total(after) - total(before)`` at a fraction of the price.  The
        per-node deltas are summed in the order ``nodes`` yields them.
        """
        delta = 0.0
        for name in nodes:
            node = graph.node(name)
            delta += self.node_cost(graph, node, after) - self.node_cost(graph, node, before)
        return delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HardwareCostModel(table={self.table.name!r})"


class CostLedger:
    """Per-node prices of the last design priced, re-priced where a design differs.

    Holds the formats of the last design :meth:`total` priced and its
    :meth:`HardwareCostModel.node_cost` vector in graph order.  A new
    design re-prices only the nodes in ``scopes`` of the nodes whose
    formats changed, then sums the whole vector with the loop
    :meth:`HardwareCostModel.price` uses, so ``ledger.total(a) ==
    model.price(graph, a).total`` exactly.  ``scopes`` maps every graph
    node to :meth:`HardwareCostModel.affected_by` of it.  The first
    design is priced in full.  The ledger moves to a new design only
    after all of its prices are computed, so a ``node_cost`` that raises
    leaves it on the previous design.
    """

    def __init__(
        self,
        model: HardwareCostModel,
        graph: DFG,
        scopes: Mapping[str, Sequence[str]],
    ) -> None:
        self.model = model
        self.graph = graph
        self._scopes = scopes
        self._nodes = list(graph)
        self._position = {node.name: index for index, node in enumerate(self._nodes)}
        self._formats: Dict[str, FixedPointFormat] | None = None
        self._costs: List[float] = []

    def total(self, assignment: WordLengthAssignment) -> float:
        """``price(graph, assignment).total``, re-pricing only what changed."""
        model, graph, nodes = self.model, self.graph, self._nodes
        if self._formats is None:
            costs = [model.node_cost(graph, node, assignment) for node in nodes]
        else:
            costs = list(self._costs)
            scopes, position = self._scopes, self._position
            changed = changed_formats(assignment.formats, self._formats)
            # Formats of names outside the graph are never priced.
            stale = dict.fromkeys(name for node in changed for name in scopes.get(node, ()))
            for name in stale:
                index = position[name]
                costs[index] = model.node_cost(graph, nodes[index], assignment)
        # A copy, so a caller mutating its assignment cannot move the ledger.
        self._formats = dict(assignment.formats)
        self._costs = costs
        return summed(costs)
