"""Trace-based Python frontend: build a DFG by *executing* a function.

Writing datapaths through :class:`~repro.dfg.builder.DFGBuilder` is
explicit but verbose; this module lets a plain Python function describe
the computation instead.  The function is executed once over tracer
wires (one per argument), every arithmetic operation it performs is
recorded as a DFG node, and the returned value(s) become the graph
outputs::

    from repro.dfg.trace import sqrt, trace

    def magnitude(x, y):
        return sqrt(x.square() + y.square() + 0.0625)

    circuit = trace(magnitude, {"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
    circuit.graph          # the DFG
    circuit.input_ranges   # {"x": Interval(-1, 1), ...}

The returned :class:`TracedCircuit` is the library's one circuit record:
the benchmark circuits built with :class:`~repro.dfg.builder.DFGBuilder`
use it too, and every entry point that takes a circuit
(``NoiseAnalysisPipeline.analyze``, ``OptimizationProblem.from_circuit``)
reads it, or a bare :class:`DFG` plus ranges, through
:func:`unpack_circuit`.

The module-level math helpers (:func:`sqrt`, :func:`exp`, :func:`log`,
:func:`square`, :func:`fabs`, :func:`minimum`, :func:`maximum`,
:func:`mux`) dispatch on tracer wires and fall back to :mod:`math` for
plain numbers, so the same function body can be traced *and* executed
numerically (handy for cross-checking a trace against the original
Python semantics).

Limitations: tracing records one concrete execution, so data-dependent
Python control flow (``if``/``while`` on a traced value) cannot be
captured — use :func:`mux` / :func:`minimum` / :func:`maximum` for
data-dependent selection.  Comparing tracer wires raises accordingly.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple, Union

from repro.dfg.builder import DFGBuilder, Wire
from repro.dfg.graph import DFG
from repro.errors import DFGError, ReproError
from repro.intervals.interval import Interval, RangeLike, coerce_interval

__all__ = [
    "TracedCircuit",
    "trace",
    "unpack_circuit",
    "sqrt",
    "exp",
    "log",
    "square",
    "fabs",
    "minimum",
    "maximum",
    "mux",
]

Number = Union[int, float]
Traceable = Union[Wire, Number]


@dataclass(frozen=True)
class TracedCircuit:
    """A DFG plus its input ranges and the metadata analyses expect.

    :func:`trace` returns one; the benchmark library wraps its
    builder-made graphs in one too.  ``output`` designates the analyzed
    output of a multi-output design (``None``: the graph's first).
    """

    name: str
    graph: DFG
    input_ranges: Dict[str, Interval]
    description: str = ""
    output: str | None = None
    tags: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def sequential(self) -> bool:
        """True when the graph contains delay registers."""
        return self.graph.is_sequential


def unpack_circuit(
    circuit: TracedCircuit | DFG,
    input_ranges: Mapping[str, RangeLike] | None,
    error: type[ReproError],
) -> Tuple[DFG, Dict[str, Interval], str, str | None]:
    """``(graph, input_ranges, name, output)`` of a circuit record or a bare DFG.

    Explicit ``input_ranges`` override a record's own.  A bare DFG is
    named after its graph and designates no output.  Raises ``error``
    (the caller's layer's error type) when ``circuit`` is neither, when
    no ranges are supplied, or when an input has none.
    """
    if isinstance(circuit, TracedCircuit):
        graph, name, output = circuit.graph, circuit.name, circuit.output
        if input_ranges is None:
            input_ranges = circuit.input_ranges
    elif isinstance(circuit, DFG):
        graph, name, output = circuit, circuit.name, None
    else:
        raise error(f"expected a TracedCircuit or a DFG, got {type(circuit).__name__}")
    if input_ranges is None:
        raise error("input_ranges is required (none supplied by the circuit)")
    ranges = {str(k): coerce_interval(v) for k, v in input_ranges.items()}
    missing = sorted(n for n in graph.inputs() if n not in ranges)
    if missing:
        raise error(f"missing input ranges for: {', '.join(missing)}")
    return graph, ranges, name, output


def _first_wire(*values: Traceable) -> Wire | None:
    for value in values:
        if isinstance(value, Wire):
            return value
    return None


def sqrt(value: Traceable) -> Traceable:
    """``sqrt`` on a tracer wire (records a node) or a plain number."""
    return value.sqrt() if isinstance(value, Wire) else math.sqrt(value)


def exp(value: Traceable) -> Traceable:
    """``exp`` on a tracer wire or a plain number."""
    return value.exp() if isinstance(value, Wire) else math.exp(value)


def log(value: Traceable) -> Traceable:
    """``log`` on a tracer wire or a plain number."""
    return value.log() if isinstance(value, Wire) else math.log(value)


def square(value: Traceable) -> Traceable:
    """Dependency-aware square on a tracer wire, or ``x * x``."""
    return value.square() if isinstance(value, Wire) else float(value) * float(value)


def fabs(value: Traceable) -> Traceable:
    """Absolute value on a tracer wire or a plain number."""
    return abs(value) if isinstance(value, Wire) else math.fabs(value)


def minimum(a: Traceable, b: Traceable) -> Traceable:
    """``min(a, b)``; records a MIN node when either operand is traced."""
    wire = _first_wire(a, b)
    if wire is None:
        return min(float(a), float(b))  # type: ignore[arg-type]
    if isinstance(a, Wire):
        return a.minimum(b)
    return wire.minimum(a)


def maximum(a: Traceable, b: Traceable) -> Traceable:
    """``max(a, b)``; records a MAX node when either operand is traced."""
    wire = _first_wire(a, b)
    if wire is None:
        return max(float(a), float(b))  # type: ignore[arg-type]
    if isinstance(a, Wire):
        return a.maximum(b)
    return wire.maximum(a)


def mux(select: Traceable, a: Traceable, b: Traceable) -> Traceable:
    """``select >= 0 ? a : b``; records a MUX node when anything is traced."""
    wire = _first_wire(select, a, b)
    if wire is None:
        return a if float(select) >= 0.0 else b  # type: ignore[arg-type]
    if not isinstance(select, Wire):
        select = wire.builder.const(float(select))  # type: ignore[union-attr]
    return select.mux(a, b)


def trace(
    fn: Callable[..., object],
    input_ranges: Mapping[str, RangeLike],
    name: str | None = None,
    output_names: Tuple[str, ...] | None = None,
    tags: Tuple[str, ...] = (),
) -> TracedCircuit:
    """Execute ``fn`` over tracer wires and return the recorded circuit.

    Parameters
    ----------
    fn:
        A plain Python function of positional arguments.  Every argument
        must have a range in ``input_ranges``; the function may return a
        single value or a tuple of values (each becomes an OUTPUT node).
        Plain numbers returned by ``fn`` are materialized as constants.
    input_ranges:
        Range per argument name, as :class:`Interval` or ``(lo, hi)``.
    name:
        Circuit name; defaults to the function's ``__name__``.
    output_names:
        Names for the OUTPUT nodes; defaults to ``out`` (single return)
        or ``out0``, ``out1``, ... (tuple return).
    """
    circuit_name = name or getattr(fn, "__name__", "traced")
    if circuit_name == "<lambda>":
        circuit_name = "traced"
    parameters = [
        p
        for p in inspect.signature(fn).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    missing = [p.name for p in parameters if p.name not in input_ranges]
    if missing:
        raise DFGError(
            f"trace of {circuit_name!r} is missing input ranges for: {', '.join(missing)}"
        )
    extra = [k for k in input_ranges if k not in {p.name for p in parameters}]
    if extra:
        raise DFGError(
            f"trace of {circuit_name!r} got ranges for unknown arguments: {', '.join(extra)}"
        )

    builder = DFGBuilder(circuit_name)
    wires = [builder.input(p.name) for p in parameters]
    result = fn(*wires)

    outputs: Tuple[object, ...] = result if isinstance(result, tuple) else (result,)
    if not outputs:
        raise DFGError(f"trace of {circuit_name!r} returned no outputs")
    if output_names is not None and len(output_names) != len(outputs):
        raise DFGError(
            f"trace of {circuit_name!r} returned {len(outputs)} value(s) but "
            f"{len(output_names)} output name(s) were given"
        )
    resolved_names = []
    for index, value in enumerate(outputs):
        if isinstance(value, (int, float)):
            value = builder.const(float(value))
        if not isinstance(value, Wire):
            raise DFGError(
                f"trace of {circuit_name!r} returned a {type(value).__name__}; "
                "traced functions must return wires or numbers"
            )
        if output_names is not None:
            out_name = output_names[index]
        else:
            out_name = "out" if len(outputs) == 1 else f"out{index}"
        resolved_names.append(builder.output(value, name=out_name))

    ranges = {str(k): coerce_interval(v) for k, v in input_ranges.items()}
    doc = inspect.getdoc(fn) or ""
    return TracedCircuit(
        name=circuit_name,
        graph=builder.build(),
        input_ranges=ranges,
        description=doc.splitlines()[0] if doc else "",
        output=resolved_names[0],
        tags=tuple(tags),
    )
