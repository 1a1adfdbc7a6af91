"""Quantization-noise sources of a fixed-point datapath.

Every node that carries a fixed-point format injects an error where its
exact result is quantized onto the format grid.  A
:class:`QuantizationSource` packages that injection point as a noise
symbol: a name and a sound error interval, which every analysis method
reads in its own algebra.

Constants are special-cased: quantizing a known coefficient produces a
*deterministic* error (``quantize(c) - c``), not a random one, so constant
sources carry a point interval at the actual rounding residue.  Delay
registers and OUTPUT markers are skipped entirely — both forward values
that were already quantized at their producer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.fixedpoint.format import FixedPointFormat, QuantizationMode
from repro.fixedpoint.quantize import quantization_error_bounds, quantize
from repro.intervals.interval import Interval
from repro.noisemodel.assignment import WordLengthAssignment

__all__ = ["QuantizationSource", "source_for_node", "build_sources", "sources_by_node"]


@dataclass(frozen=True, slots=True)
class QuantizationSource:
    """One quantization point of the datapath, viewed as a noise symbol.

    Attributes
    ----------
    node:
        Name of the DFG node whose result is quantized.
    symbol:
        Noise-symbol name used in symbolic error expressions (``e_<node>``).
    fmt:
        The fixed-point format applied at the node.
    mode:
        Quantization mode in effect (round / truncate).
    error_interval:
        Sound bounds of the injected error.
    deterministic:
        True for constant nodes, whose error is a single known value.
    """

    node: str
    symbol: str
    fmt: FixedPointFormat
    mode: QuantizationMode
    error_interval: Interval
    deterministic: bool = False

    @property
    def step(self) -> float:
        """Quantization step of the source's format."""
        return self.fmt.step

    def variance(self) -> float:
        """Variance of the classical error model (0 for constants)."""
        if self.deterministic:
            return 0.0
        return self.step * self.step / 12.0

    def mean(self) -> float:
        """Mean of the error model."""
        if self.deterministic:
            return self.error_interval.midpoint
        if self.mode is QuantizationMode.TRUNCATE:
            return -0.5 * self.step
        return 0.0


def source_for_node(
    node,
    fmt: FixedPointFormat,
    quantization: QuantizationMode,
    overflow=None,
) -> QuantizationSource:
    """The quantization source one formatted node injects.

    Factored out of :func:`build_sources` so incremental re-analysis can
    rebuild the source of a single node whose format changed without
    re-enumerating the whole graph.
    """
    if node.op is OpType.CONST:
        residue = quantize(float(node.value), fmt, quantization, overflow)
        residue -= float(node.value)
        return QuantizationSource(
            node=node.name,
            symbol=f"e_{node.name}",
            fmt=fmt,
            mode=quantization,
            error_interval=Interval.point(residue),
            deterministic=True,
        )
    return QuantizationSource(
        node=node.name,
        symbol=f"e_{node.name}",
        fmt=fmt,
        mode=quantization,
        error_interval=quantization_error_bounds(fmt, quantization),
    )


def build_sources(
    graph: DFG,
    assignment: WordLengthAssignment,
) -> List[QuantizationSource]:
    """Enumerate the quantization sources of ``graph`` under ``assignment``.

    One source is produced per formatted node, in topological order, with
    OUTPUT and DELAY nodes skipped (they forward already-quantized
    values).  Unformatted nodes are modeled as exact wide intermediates
    and inject no error, mirroring :func:`~repro.dfg.evaluate.simulate_fixed_point`.
    """
    sources: List[QuantizationSource] = []
    for name in graph.topological_order():
        node = graph.node(name)
        if node.op in (OpType.OUTPUT, OpType.DELAY):
            continue
        fmt = assignment.formats.get(name)
        if fmt is None:
            continue
        sources.append(source_for_node(node, fmt, assignment.quantization, assignment.overflow))
    return sources


def sources_by_node(sources: List[QuantizationSource]) -> Dict[str, QuantizationSource]:
    """Index a source list by node name."""
    return {source.node: source for source in sources}
