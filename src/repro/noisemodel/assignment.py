"""Word-length assignments: the decision variables of the optimization.

A :class:`WordLengthAssignment` records, for every signal (node) of a
dataflow graph, its fixed-point format together with the quantization and
overflow modes.  It is the object the optimizers mutate, the noise
analyzer consumes, and the HLS cost model prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping

from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.errors import NoiseModelError
from repro.fixedpoint.format import FixedPointFormat, OverflowMode, QuantizationMode
from repro.intervals.interval import Interval
from repro.utils.mathutils import integer_bits_for_range

__all__ = ["WordLengthAssignment", "changed_formats", "ensure_range_coverage"]

_MISSING = object()


@dataclass
class WordLengthAssignment:
    """Per-node fixed-point formats plus global quantization/overflow modes."""

    formats: Dict[str, FixedPointFormat] = field(default_factory=dict)
    quantization: QuantizationMode = QuantizationMode.ROUND
    overflow: OverflowMode = OverflowMode.SATURATE

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(
        cls,
        graph: DFG,
        word_length: int,
        ranges: Mapping[str, Interval],
        quantization: QuantizationMode | str = QuantizationMode.ROUND,
        overflow: OverflowMode | str = OverflowMode.SATURATE,
        signed: bool = True,
    ) -> "WordLengthAssignment":
        """The paper's baseline: the same total word length everywhere.

        Every quantized node receives ``word_length`` total bits.  The
        integer part is the *minimum* needed for that node's own range (so
        the baseline never overflows), and whatever remains becomes
        fractional precision.  A node whose range alone needs more integer
        bits than ``word_length`` raises — the uniform design would
        overflow, so the requested word length is simply too small.

        ``ranges`` must cover every non-OUTPUT node of the graph; a node
        without a range would otherwise surface much later as a
        ``format_of`` failure far from the cause, so it raises here.
        """
        uncovered = [
            node.name for node in graph if node.op is not OpType.OUTPUT and node.name not in ranges
        ]
        if uncovered:
            raise NoiseModelError(
                "uniform assignment is missing ranges for node(s): "
                f"{', '.join(sorted(uncovered))}; run range analysis over the whole graph "
                "(e.g. repro.dfg.range_analysis.infer_ranges) before sizing word lengths"
            )
        formats: Dict[str, FixedPointFormat] = {}
        for node in graph:
            if node.op is OpType.OUTPUT:
                continue
            interval = ranges[node.name]
            integer_bits = integer_bits_for_range(interval.lo, interval.hi, signed=signed)
            if integer_bits > word_length:
                raise NoiseModelError(
                    f"node {node.name!r} needs {integer_bits} integer bits but the uniform "
                    f"word length is only {word_length}"
                )
            formats[node.name] = FixedPointFormat(
                integer_bits=integer_bits,
                fractional_bits=word_length - integer_bits,
                signed=signed,
            )
        return cls(
            formats=formats,
            quantization=QuantizationMode.coerce(quantization),
            overflow=OverflowMode.coerce(overflow),
        )

    @classmethod
    def from_fractional_bits(
        cls,
        graph: DFG,
        fractional_bits: Mapping[str, int],
        ranges: Mapping[str, Interval],
        quantization: QuantizationMode | str = QuantizationMode.ROUND,
        overflow: OverflowMode | str = OverflowMode.SATURATE,
        signed: bool = True,
    ) -> "WordLengthAssignment":
        """Build formats from per-node fractional bits plus range-derived integer bits."""
        formats: Dict[str, FixedPointFormat] = {}
        for name, frac in fractional_bits.items():
            if name not in ranges:
                raise NoiseModelError(f"no range available for node {name!r}")
            interval = ranges[name]
            integer_bits = integer_bits_for_range(interval.lo, interval.hi, signed=signed)
            formats[name] = FixedPointFormat(integer_bits, int(frac), signed)
        return cls(
            formats=formats,
            quantization=QuantizationMode.coerce(quantization),
            overflow=OverflowMode.coerce(overflow),
        )

    @classmethod
    def from_doc(cls, doc: Mapping) -> "WordLengthAssignment":
        """Rebuild an assignment from its :meth:`to_doc` JSON document."""
        formats = {
            str(name): FixedPointFormat(int(spec[0]), int(spec[1]), bool(spec[2]))
            for name, spec in dict(doc.get("formats", {})).items()
        }
        return cls(
            formats=formats,
            quantization=QuantizationMode.coerce(doc.get("quantization", "round")),
            overflow=OverflowMode.coerce(doc.get("overflow", "saturate")),
        )

    def to_doc(self) -> dict:
        """JSON-serializable document round-tripping through :meth:`from_doc`.

        Unlike :meth:`word_lengths` this preserves the integer/fractional
        split and the signedness per node, so checkpoints can resume a
        search from the *exact* design, not a lossy summary of it.
        """
        return {
            "formats": {
                name: [fmt.integer_bits, fmt.fractional_bits, fmt.signed]
                for name, fmt in sorted(self.formats.items())
            },
            "quantization": self.quantization.value,
            "overflow": self.overflow.value,
        }

    # ------------------------------------------------------------------ #
    # queries and updates
    # ------------------------------------------------------------------ #
    def format_of(self, name: str) -> FixedPointFormat:
        """Format of a node; raises when the node carries no format."""
        try:
            return self.formats[name]
        except KeyError as exc:
            raise NoiseModelError(f"node {name!r} has no fixed-point format") from exc

    def fractional_bits(self) -> Dict[str, int]:
        """Per-node fractional bit counts."""
        return {name: fmt.fractional_bits for name, fmt in self.formats.items()}

    def word_lengths(self) -> Dict[str, int]:
        """Per-node total word lengths."""
        return {name: fmt.word_length for name, fmt in self.formats.items()}

    def total_bits(self) -> int:
        """Sum of all word lengths (a crude but monotone cost proxy)."""
        return sum(fmt.word_length for fmt in self.formats.values())

    def max_word_length(self) -> int:
        """Largest word length in the assignment."""
        return max((fmt.word_length for fmt in self.formats.values()), default=0)

    def with_fractional_bits(self, name: str, fractional_bits: int) -> "WordLengthAssignment":
        """A copy with one node's fractional precision replaced."""
        if fractional_bits < 0:
            raise NoiseModelError(f"fractional bits must be >= 0, got {fractional_bits}")
        formats = dict(self.formats)
        formats[name] = self.format_of(name).with_fractional_bits(fractional_bits)
        return WordLengthAssignment(formats, self.quantization, self.overflow)

    def copy(self) -> "WordLengthAssignment":
        """A shallow copy safe to mutate independently."""
        return WordLengthAssignment(dict(self.formats), self.quantization, self.overflow)

    def key(self) -> tuple:
        """Canonical hashable identity of this assignment.

        Two assignments with the same per-node formats and the same
        quantization/overflow modes produce equal keys regardless of dict
        insertion order, so the key is usable for memoizing anything
        derived purely from the assignment (analysis results, design
        evaluations).
        """
        return (
            self.quantization.value,
            self.overflow.value,
            tuple(
                (name, fmt.integer_bits, fmt.fractional_bits, fmt.signed)
                for name, fmt in sorted(self.formats.items())
            ),
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.formats)

    def __len__(self) -> int:
        return len(self.formats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.formats:
            return "WordLengthAssignment(empty)"
        lengths = sorted(fmt.word_length for fmt in self.formats.values())
        return (
            f"WordLengthAssignment(nodes={len(self.formats)}, "
            f"W in [{lengths[0]}, {lengths[-1]}], mode={self.quantization.value})"
        )


def ensure_range_coverage(
    assignment: WordLengthAssignment,
    ranges: Mapping[str, Interval],
    max_extra_integer_bits: int = 4,
) -> WordLengthAssignment:
    """Widen formats whose representable range would clip their node.

    ``integer_bits_for_range`` sizes against the half-open integer range
    ``[-2**(i-1), 2**(i-1))`` without knowing the fractional precision, so
    a range ending within one quantization step of the power-of-two
    boundary can still exceed ``fmt.max_value``.  One extra integer bit
    closes that gap and keeps the saturation-free premise of the error
    models honest.  Returns ``assignment`` unchanged when every format
    already covers its node's range.
    """
    formats = dict(assignment.formats)
    changed = False
    for node, fmt in formats.items():
        interval = ranges.get(node)
        if interval is None:
            continue
        widened = fmt
        while not (widened.min_value <= interval.lo and interval.hi <= widened.max_value):
            if widened.integer_bits - fmt.integer_bits >= max_extra_integer_bits:
                raise NoiseModelError(
                    f"format {fmt.describe()} of node {node!r} cannot cover its range "
                    f"[{interval.lo}, {interval.hi}] even with {max_extra_integer_bits} "
                    "extra integer bits; the error models assume a saturation-free datapath"
                )
            widened = widened.with_integer_bits(widened.integer_bits + 1)
        if widened is not fmt:
            formats[node] = widened
            changed = True
    if not changed:
        return assignment
    return WordLengthAssignment(formats, assignment.quantization, assignment.overflow)


def changed_formats(new: Mapping[str, Any], old: Mapping[str, Any]) -> List[str]:
    """Nodes whose format differs between two ``formats`` mappings.

    Covers changed, added and removed nodes: changed and added ones in
    ``new``'s order, then removed ones in ``old``'s order.  Formats are
    compared by identity first — assignments derived through
    :meth:`WordLengthAssignment.with_fractional_bits` or
    :func:`ensure_range_coverage` share every untouched
    :class:`FixedPointFormat` object, which skips the dataclass field
    comparison almost everywhere.
    """
    if new is old:
        return []
    changed = []
    matched = 0
    get = old.get
    for base, fmt in new.items():
        prior = get(base, _MISSING)
        if prior is _MISSING:
            changed.append(base)
            continue
        matched += 1
        if prior is not fmt and prior != fmt:
            changed.append(base)
    if matched != len(old):
        changed.extend(base for base in old if base not in new)
    return changed
