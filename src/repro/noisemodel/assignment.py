"""Word-length assignments: the decision variables of the optimization.

A :class:`WordLengthAssignment` records, for every signal (node) of a
dataflow graph, its fixed-point format together with the quantization and
overflow modes.  It is the object the optimizers derive, the noise
analyzer consumes, and the HLS cost model prices.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.errors import NoiseModelError
from repro.fixedpoint.format import FixedPointFormat, OverflowMode, QuantizationMode
from repro.intervals.interval import Interval
from repro.utils.mathutils import integer_bits_for_range

__all__ = [
    "WordLengthAssignment",
    "changed_formats",
    "covering_format",
    "ensure_range_coverage",
]

_MISSING = object()

#: Integer bits coverage widening may add to one format before giving up.
MAX_EXTRA_INTEGER_BITS = 4


class _Design:
    """The formats of one assignment and what is known about them.

    A derived assignment links to its parent's and grandparent's
    ``_Design``, never to the assignments themselves, so a lineage keeps
    at most three formats dicts alive however long a search runs.
    """

    __slots__ = ("formats", "key", "positions", "covered")

    def __init__(self, formats: Dict[str, FixedPointFormat]) -> None:
        self.formats = formats
        #: Cached :meth:`WordLengthAssignment.key`.
        self.key: tuple | None = None
        #: Node name -> its index in the key's name-sorted format tuple.
        self.positions: Dict[str, int] | None = None
        #: The ranges mapping every format is known to cover.
        self.covered: Mapping[str, Interval] | None = None


class WordLengthAssignment:
    """Per-node fixed-point formats plus global quantization/overflow modes.

    Immutable: ``formats`` is a read-only mapping, and every update
    (:meth:`with_fractional_bits`, :meth:`with_formats`, a widening
    :func:`ensure_range_coverage`) returns a new assignment that records
    its parent and the nodes it changed.  :func:`changed_formats`,
    :func:`ensure_range_coverage` and :meth:`key` read that record, at
    most two derivations up, to work in O(changed) instead of O(nodes).
    The record is process-local: pickles and :meth:`to_doc` carry the
    formats and modes only.  Equality compares formats node by node;
    assignments are unhashable (use :meth:`key`).
    """

    __slots__ = ("formats", "quantization", "overflow", "_design", "_lineage")

    def __init__(
        self,
        formats: Mapping[str, FixedPointFormat] | None = None,
        quantization: QuantizationMode = QuantizationMode.ROUND,
        overflow: OverflowMode = OverflowMode.SATURATE,
    ) -> None:
        self._set(dict(formats or {}), quantization, overflow, ())

    def _set(
        self,
        formats: Dict[str, FixedPointFormat],
        quantization: QuantizationMode,
        overflow: OverflowMode,
        lineage: Tuple[Tuple[_Design, Tuple[str, ...]], ...],
    ) -> None:
        """Initialise every slot; ``formats`` becomes owned by this assignment."""
        put = object.__setattr__
        put(self, "formats", MappingProxyType(formats))
        put(self, "quantization", quantization)
        put(self, "overflow", overflow)
        put(self, "_design", _Design(formats))
        # ``(ancestor design, nodes changed since it)`` hops: parent, then grandparent.
        put(self, "_lineage", lineage)

    def _derive(
        self, formats: Dict[str, FixedPointFormat], changed: Tuple[str, ...]
    ) -> "WordLengthAssignment":
        """A child owning ``formats``, which differ from ours at most at ``changed``."""
        child = object.__new__(type(self))
        lineage = ((self._design, changed),) + self._lineage[:1]
        child._set(formats, self.quantization, self.overflow, lineage)
        return child

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"WordLengthAssignment is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"WordLengthAssignment is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), (dict(self._design.formats), self.quantization, self.overflow))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.quantization != other.quantization or self.overflow != other.overflow:
            return False
        return self._design is other._design or self._design.formats == other._design.formats

    __hash__ = None  # type: ignore[assignment]

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
        """A derived assignment with one node's fractional precision replaced."""
        if fractional_bits < 0:
            raise NoiseModelError(f"fractional bits must be >= 0, got {fractional_bits}")
        return self.with_formats({name: self.format_of(name).with_fractional_bits(fractional_bits)})

    def with_formats(self, changes: Mapping[str, FixedPointFormat]) -> "WordLengthAssignment":
        """A derived assignment with the formats of ``changes`` set (added or replaced)."""
        formats = dict(self._design.formats)
        formats.update(changes)
        return self._derive(formats, tuple(changes))

    def key(self) -> tuple:
        """Canonical hashable identity of this assignment.

        Two assignments with the same per-node formats and the same
        quantization/overflow modes produce equal keys regardless of dict
        insertion order or derivation, so the key is usable for memoizing
        anything derived purely from the assignment (analysis results,
        design evaluations).  Cached; a derived assignment patches the
        cached key of its parent or grandparent at the changed nodes.
        """
        design = self._design
        if design.key is None:
            design.key = self._patched_key() or self._sorted_key()
        return design.key

    def _sorted_key(self) -> tuple:
        """:meth:`key` from scratch: every format, sorted by node name."""
        items = sorted(self._design.formats.items())
        self._design.positions = {name: index for index, (name, _fmt) in enumerate(items)}
        return (
            self.quantization.value,
            self.overflow.value,
            tuple((name, fmt.integer_bits, fmt.fractional_bits, fmt.signed) for name, fmt in items),
        )

    def _ancestors(self) -> Iterator[Tuple[_Design, Tuple[str, ...]]]:
        """``(ancestor design, nodes changed since it)``, parent first, at most two."""
        changed: Tuple[str, ...] = ()
        for ancestor, step in self._lineage:
            changed += step
            yield ancestor, changed

    def _patched_key(self) -> tuple | None:
        """:meth:`key` from an ancestor's cached key, or ``None`` if none has one."""
        for ancestor, changed in self._ancestors():
            positions = ancestor.positions
            if ancestor.key is None or not all(name in positions for name in changed):
                continue
            # Derivations never drop a node, so the names match the ancestor's.
            entries = list(ancestor.key[2])
            formats = self._design.formats
            for name in changed:
                fmt = formats[name]
                entries[positions[name]] = (name, fmt.integer_bits, fmt.fractional_bits, fmt.signed)
            self._design.positions = positions
            return (self.quantization.value, self.overflow.value, tuple(entries))
        return None

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


def covering_format(
    node: str,
    fmt: FixedPointFormat,
    interval: Interval,
    max_extra_integer_bits: int = MAX_EXTRA_INTEGER_BITS,
) -> FixedPointFormat:
    """``fmt`` with the fewest extra integer bits that make it cover ``interval``.

    ``integer_bits_for_range`` sizes against the half-open integer range
    ``[-2**(i-1), 2**(i-1))`` without knowing the fractional precision, so
    a range ending within one quantization step of the power-of-two
    boundary can still exceed ``fmt.max_value``.  One extra integer bit
    closes that gap and keeps the saturation-free premise of the error
    models honest.  Returns ``fmt`` itself when it already covers the
    range; raises when more than ``max_extra_integer_bits`` would be needed.
    """
    widened = fmt
    while not (widened.min_value <= interval.lo and interval.hi <= widened.max_value):
        if widened.integer_bits - fmt.integer_bits >= max_extra_integer_bits:
            raise NoiseModelError(
                f"format {fmt.describe()} of node {node!r} cannot cover its range "
                f"[{interval.lo}, {interval.hi}] even with {max_extra_integer_bits} "
                "extra integer bits; the error models assume a saturation-free datapath"
            )
        widened = widened.with_integer_bits(widened.integer_bits + 1)
    return widened


def _widened(
    formats: Mapping[str, FixedPointFormat],
    nodes: Iterable[str],
    ranges: Mapping[str, Interval],
    max_extra_integer_bits: int,
) -> Dict[str, FixedPointFormat]:
    """:func:`covering_format` of each of ``nodes`` whose format it changes."""
    widened = {}
    for node in nodes:
        interval = ranges.get(node)
        if interval is None:
            continue
        fmt = formats[node]
        covering = covering_format(node, fmt, interval, max_extra_integer_bits)
        if covering is not fmt:
            widened[node] = covering
    return widened


def _widened_all(
    formats: Mapping[str, FixedPointFormat],
    ranges: Mapping[str, Interval],
    max_extra_integer_bits: int,
) -> Dict[str, FixedPointFormat]:
    """The full coverage scan: :func:`_widened` over every node."""
    return _widened(formats, formats, ranges, max_extra_integer_bits)


def ensure_range_coverage(
    assignment: WordLengthAssignment,
    ranges: Mapping[str, Interval],
    max_extra_integer_bits: int = MAX_EXTRA_INTEGER_BITS,
) -> WordLengthAssignment:
    """Widen formats whose representable range would clip their node.

    Applies :func:`covering_format` to every node with a range.  Returns
    ``assignment`` unchanged when every format already covers its node's
    range, else a derived assignment that records the widened nodes.

    An assignment remembers the ``ranges`` object it was found to cover,
    so the next call with the same object returns at once, and an
    assignment derived from a covered parent or grandparent checks only
    the nodes changed since — O(changed) instead of a scan of every
    node.  Pass the same, unmutated ``ranges`` object to benefit.
    """
    design = assignment._design
    if design.covered is ranges:
        return assignment
    changed = None
    for ancestor, names in assignment._ancestors():
        if ancestor.covered is ranges:
            changed = names
            break
    if changed is None:
        widened = _widened_all(design.formats, ranges, max_extra_integer_bits)
    else:
        widened = _widened(design.formats, changed, ranges, max_extra_integer_bits)
    if widened:
        assignment = assignment.with_formats(widened)
    assignment._design.covered = ranges
    return assignment


def _delta(new: WordLengthAssignment, old: WordLengthAssignment) -> Tuple[str, ...] | None:
    """Nodes that may differ between two related assignments, or ``None`` if unrelated.

    Answers when ``old`` is ``new``'s parent, grandparent or sibling: a
    superset of the changed nodes, read off the derivation records.
    """
    for ancestor, changed in new._ancestors():
        if ancestor is old._design:
            return changed
    if new._lineage and old._lineage and new._lineage[0][0] is old._lineage[0][0]:
        return new._lineage[0][1] + old._lineage[0][1]
    return None


def _diff_formats(
    new: Mapping[str, FixedPointFormat], old: Mapping[str, FixedPointFormat]
) -> List[str]:
    """The full diff of two ``formats`` mappings, O(nodes)."""
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


def changed_formats(new: WordLengthAssignment, old: WordLengthAssignment) -> List[str]:
    """Nodes whose format differs between two assignments.

    Covers changed, added and removed nodes.  When ``old`` is ``new``'s
    parent, grandparent or sibling the candidates come from the
    derivation records and only they are compared, in the order they
    were changed — O(changed).  Any other
    pair runs the full diff: changed and added nodes in ``new``'s order,
    then removed ones in ``old``'s order.  Both paths return the same set
    of nodes.  Formats are compared by identity first — derived
    assignments share every untouched :class:`FixedPointFormat` object,
    which skips the dataclass field comparison almost everywhere.
    """
    new_design = new._design
    old_design = old._design
    if new_design is old_design:
        return []
    candidates = _delta(new, old)
    if candidates is None:
        return _diff_formats(new_design.formats, old_design.formats)
    new_get = new_design.formats.get
    old_get = old_design.formats.get
    changed = []
    for base in dict.fromkeys(candidates):
        fmt = new_get(base, _MISSING)
        prior = old_get(base, _MISSING)
        if prior is not fmt and prior != fmt:
            changed.append(base)
    return changed
