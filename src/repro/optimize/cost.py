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
A model compiles each graph once into one :class:`NodePricer` per node:
the names whose word lengths the node's price reads (DELAY chains
already resolved) and a closure over the table coefficients.  Every
entry point evaluates those pricers on ``formats[name].word_length``, so
a node has one price, bit for bit, whichever entry point asked.
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
import weakref
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Sequence, Tuple

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
    "NodePricer",
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


class NodePricer(NamedTuple):
    """One node's compiled price: the word lengths it reads and the area they give.

    ``cost`` is called with the word lengths of :attr:`reads`, in that
    order, and returns the node's area.  It sees nothing else of the
    design, so a node's price can depend only on the formats named here.
    """

    #: The node's own name when its price reads its own word length, else ``None``.
    own: str | None
    #: The DELAY-resolved producers of the operands whose widths it reads.
    operands: Tuple[str, ...]
    cost: Callable[..., float]

    @property
    def reads(self) -> Tuple[str, ...]:
        """``own`` (when set), then ``operands``: the arguments of :attr:`cost`."""
        return self.operands if self.own is None else (self.own, *self.operands)


#: ``(reads, cost)`` of one compiled node, the form the pricing loops unpack.
_Entry = Tuple[Tuple[str, ...], Callable[..., float]]

#: The coefficient each arithmetic op scales its operand-width term by.
_COEFFICIENT = {
    OpType.ADD: "add_per_bit",
    OpType.SUB: "add_per_bit",
    OpType.MIN: "minmax_per_bit",
    OpType.MAX: "minmax_per_bit",
    OpType.NEG: "neg_per_bit",
    OpType.ABS: "abs_per_bit",
    OpType.MUL: "mul_per_bit_pair",
    OpType.DIV: "div_per_bit_pair",
    OpType.SQUARE: "mul_per_bit_pair",
    OpType.SQRT: "sqrt_per_bit_pair",
    OpType.EXP: "exp_per_bit_pair",
    OpType.LOG: "log_per_bit_pair",
    OpType.MUX: "mux_per_bit",
}


def _free() -> float:
    return 0.0


def _per_bit(coefficient: float) -> Callable[[int], float]:
    def cost(width: int) -> float:
        return coefficient * width

    return cost


def _arithmetic(op: OpType, table: CostTable) -> Callable[..., float]:
    """``(own width, *operand widths) -> area`` of an arithmetic op.

    Every op pays ``op_overhead + result_per_bit * own`` for rounding
    into its own format, plus a term in its operand widths.
    """
    base, per_result = table.op_overhead, table.result_per_bit
    k = getattr(table, _COEFFICIENT[op])
    if op in (OpType.ADD, OpType.SUB, OpType.MIN, OpType.MAX):

        def cost(own: int, a: int, b: int) -> float:
            return base + per_result * own + k * max(a, b)

    elif op in (OpType.NEG, OpType.ABS):

        def cost(own: int, w: int) -> float:
            return base + per_result * own + k * w

    elif op in (OpType.MUL, OpType.DIV):

        def cost(own: int, a: int, b: int) -> float:
            return base + per_result * own + k * a * b

    elif op in (OpType.SQUARE, OpType.SQRT):

        def cost(own: int, w: int) -> float:
            return base + per_result * own + k * (w * (w + 1)) / 2.0

    elif op in (OpType.EXP, OpType.LOG):

        def cost(own: int, w: int) -> float:
            return base + per_result * own + k * w * w

    else:  # MUX

        def cost(own: int, select: int, a: int, b: int) -> float:
            # The select contributes only its sign bit; the datapath pays
            # per bit of the wider forwarded operand.
            return base + per_result * own + k * max(a, b)

    return cost


def _producer(graph: DFG, name: str) -> str:
    """The node whose word ``name`` presents to its consumers.

    DELAY chains are resolved to the producing node: a register
    forwards its source's already-quantized word, so its own nominal
    format is irrelevant to both the noise model and the hardware.
    """
    seen = set()
    while graph.node(name).op is OpType.DELAY:
        if name in seen:
            raise OptimizationError(f"delay cycle through {name!r}; cannot size the register")
        seen.add(name)
        name = graph.node(name).inputs[0]
    return name


def _operand_producers(graph: DFG, node: Node) -> Tuple[str, ...]:
    """The producers whose widths ``node`` may read (a register: its source's)."""
    if node.op is OpType.DELAY:
        return (_producer(graph, node.name),)
    return tuple(_producer(graph, operand) for operand in node.inputs)


def _priced(
    entry: _Entry,
    formats: Mapping[str, FixedPointFormat],
    moved: str | None = None,
    width: int = 0,
) -> float:
    """Evaluate one compiled node on ``formats``, reading ``width`` as ``moved``'s word length."""
    reads, cost = entry
    try:
        widths = [width if name == moved else formats[name].word_length for name in reads]
    except KeyError as missing:
        raise OptimizationError(
            f"node {missing.args[0]!r} has no fixed-point format to price; the cost "
            "model needs an assignment covering every non-OUTPUT node"
        ) from None
    return cost(*widths)


class _PricingTables(weakref.WeakKeyDictionary):
    """``graph -> (graph.version, {name: entry})``, holding no graph alive.

    Pickles empty: the compiled closures do not pickle, and a model
    rebuilds a table the first time it prices a graph again.
    """

    def __reduce__(self):
        return type(self), ()


class HardwareCostModel:
    """Prices a :class:`WordLengthAssignment` on a dataflow graph.

    Sequential designs are priced on the *original* (rolled) graph — the
    hardware is one instance of each operator plus the delay registers,
    regardless of the unrolling horizon the error analysis uses.

    **Compiled pricers.**  The model compiles a graph once into one
    :class:`NodePricer` per node (:meth:`node_pricer`), keeps that table
    per graph (weakly; it is rebuilt when :attr:`DFG.version` changes)
    and evaluates it on ``formats[name].word_length`` in :meth:`node_cost`,
    :meth:`price`, :meth:`total`, :meth:`reprice` and :class:`CostLedger`.
    A missing format raises :class:`OptimizationError` when priced; a
    delay cycle raises it at compile time, naming the register.

    **The pricer contract.**  A pricer reads only the node's own word
    length and the word lengths of its operands, each resolved through
    DELAY chains to the producing node; compilation rejects a pricer
    that names any other node.  So a format change at a node can move
    the price of exactly the nodes :meth:`affected_by` returns for it,
    which is what :class:`CostLedger` and greedy's incremental shave
    ranking re-price.  :meth:`node_pricer` is the one override point: a
    subclass that overrides :meth:`node_cost` raises :class:`TypeError`
    when it is defined, because the pricing loops never call it.
    """

    def __init__(self, table: CostTable = DEFAULT_COST_TABLE) -> None:
        self.table = table
        self._tables = _PricingTables()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.node_cost is not HardwareCostModel.node_cost:
            raise TypeError(
                f"{cls.__name__} overrides node_cost, which price, total, reprice and "
                "CostLedger never call; override node_pricer to change a node's price"
            )

    # ------------------------------------------------------------------ #
    def node_pricer(self, graph: DFG, node: Node) -> NodePricer:
        """Compile ``node``'s price under this model's table (0 for pure ports)."""
        op = node.op
        if op in (OpType.INPUT, OpType.OUTPUT):
            return NodePricer(None, (), _free)
        if op is OpType.CONST:
            return NodePricer(node.name, (), _per_bit(self.table.const_per_bit))
        operands = _operand_producers(graph, node)
        if op is OpType.DELAY:
            return NodePricer(None, operands, _per_bit(self.table.register_per_bit))
        return NodePricer(node.name, operands, _arithmetic(op, self.table))

    def _pricers(self, graph: DFG) -> Dict[str, _Entry]:
        """``graph``'s compiled ``{name: (reads, cost)}``, in graph order."""
        cached = self._tables.get(graph)
        if cached is not None and cached[0] == graph.version:
            return cached[1]
        pricers: Dict[str, _Entry] = {}
        for node in graph:
            pricer = self.node_pricer(graph, node)
            allowed = _operand_producers(graph, node)
            if pricer.own not in (None, node.name) or not set(pricer.operands) <= set(allowed):
                raise OptimizationError(
                    f"the pricer of {node.name!r} reads {pricer.reads}; a node's price may "
                    f"read only its own word length and those of {allowed}"
                )
            pricers[node.name] = (pricer.reads, pricer.cost)
        self._tables[graph] = (graph.version, pricers)
        return pricers

    def node_cost(self, graph: DFG, node: Node, assignment: WordLengthAssignment) -> float:
        """Area of one node under ``assignment`` (0 for pure ports)."""
        return _priced(self._pricers(graph)[node.name], assignment.formats)

    def price(self, graph: DFG, assignment: WordLengthAssignment) -> CostBreakdown:
        """Price the whole design and return the breakdown."""
        pricers, formats = self._pricers(graph), assignment.formats
        per_node: Dict[str, float] = {}
        per_op: Dict[str, float] = {}
        for node in graph:
            cost = _priced(pricers[node.name], formats)
            if cost == 0.0:
                continue
            per_node[node.name] = cost
            per_op[node.op.value] = per_op.get(node.op.value, 0.0) + cost
        # per_node holds the nonzero prices in graph order.
        return CostBreakdown(total=summed(per_node.values()), per_node=per_node, per_op=per_op)

    def total(self, graph: DFG, assignment: WordLengthAssignment) -> float:
        """Total area only: :meth:`price`'s ``total``, without the breakdown dicts."""
        formats = assignment.formats
        return summed(_priced(entry, formats) for entry in self._pricers(graph).values())

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
        after: WordLengthAssignment | None,
        nodes: Iterable[str],
        *,
        prices: Dict[str, float] | None = None,
        moved: Tuple[str, int] | None = None,
    ) -> float:
        """Cost delta (after - before) when only ``nodes`` can have changed.

        Pass :meth:`affected_by` of every mutated node.  The result is
        ``delta += new - old`` over ``nodes``, in the order they come, with
        ``new`` and ``old`` a node's price under ``after`` and ``before``.
        That matches ``total(after) - total(before)`` up to float rounding
        only: the totals are summed over every node in graph order.

        **Table form** (``after=None``, both keywords given): ``prices``
        is a per-node price table of ``before``, and ``moved = (node,
        word_length)`` makes ``after`` ``before`` with that one node's
        word length substituted, so no ``after`` assignment is built.  An
        entry present in ``prices`` is read as ``old``; a missing one is
        priced from ``before`` and stored.  The caller keeps the table
        valid by dropping the :meth:`affected_by` scope of every node
        whose format changes in ``before``.  The table form returns, bit
        for bit, what the four-argument call returns for the same designs.
        """
        pricers = self._pricers(graph)
        old_formats = before.formats
        delta = 0.0
        if prices is None:
            new_formats = after.formats
            for name in nodes:
                entry = pricers[name]
                delta += _priced(entry, new_formats) - _priced(entry, old_formats)
            return delta
        node, width = moved
        for name in nodes:
            entry = pricers[name]
            new = _priced(entry, old_formats, node, width)
            old = prices.get(name)
            if old is None:
                old = prices[name] = _priced(entry, old_formats)
            delta += new - old
        return delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HardwareCostModel(table={self.table.name!r})"


class CostLedger:
    """Per-node prices of the last design priced, re-priced where a design differs.

    Holds the last design :meth:`total` priced and its per-node prices,
    evaluated from the model's compiled pricers in graph order.  A new
    design re-evaluates only the pricers of the nodes in ``scopes`` of
    the nodes whose formats changed (:func:`changed_formats`, which is
    O(changed) when the two designs are derived from one another or
    share a parent), then sums the whole vector with the loop
    :meth:`HardwareCostModel.price` uses, so ``ledger.total(a) ==
    model.price(graph, a).total`` exactly.  ``scopes`` maps every graph
    node to :meth:`HardwareCostModel.affected_by` of it.  The first
    design, and the first after the model recompiled the graph, is
    priced in full.  The stale prices are computed into a small dict
    and written into the table in place only once every pricer has
    returned, so a pricer that raises leaves the ledger on the previous
    design, and no update copies the whole table.
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
        self._last: WordLengthAssignment | None = None
        #: The compiled table ``_costs`` was evaluated from.
        self._pricers: Dict[str, _Entry] | None = None
        self._costs: Dict[str, float] = {}

    def total(self, assignment: WordLengthAssignment) -> float:
        """``price(graph, assignment).total``, re-pricing only what changed."""
        pricers = self.model._pricers(self.graph)
        formats = assignment.formats
        if self._last is None or pricers is not self._pricers:
            costs = {name: _priced(entry, formats) for name, entry in pricers.items()}
        else:
            scopes = self._scopes
            changed = changed_formats(assignment, self._last)
            # Formats of names outside the graph are never priced.
            stale = dict.fromkeys(name for node in changed for name in scopes.get(node, ()))
            fresh = {name: _priced(pricers[name], formats) for name in stale}
            # Every pricer has returned: move the table in place (existing
            # keys keep their graph-order positions).
            costs = self._costs
            costs.update(fresh)
        self._last, self._pricers, self._costs = assignment, pricers, costs
        return summed(costs.values())
