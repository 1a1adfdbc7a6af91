"""Structured results of an end-to-end noise analysis run.

An :class:`AnalysisReport` is the pipeline's single deliverable: per-node
ranges and formats, one :class:`MethodResult` per analysis method, the
Monte-Carlo cross-check, and enclosure verdicts.  Everything serializes
to plain JSON so benchmark drivers and CI can diff runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.intervals.interval import Interval

__all__ = ["MethodResult", "AnalysisReport"]


@dataclass(frozen=True)
class MethodResult:
    """Outcome of one analysis method on one output."""

    method: str
    lower: float
    upper: float
    mean: float
    variance: float
    noise_power: float
    snr_db: float
    runtime_s: float
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def bounds(self) -> Interval:
        """The error bounds as an :class:`Interval`."""
        return Interval(self.lower, self.upper)

    @property
    def width(self) -> float:
        """Width of the error bounds."""
        return self.upper - self.lower

    def to_dict(self) -> dict:
        """JSON-serializable view."""
        row = {
            "method": self.method,
            "lower": self.lower,
            "upper": self.upper,
            "mean": self.mean,
            "variance": self.variance,
            "noise_power": self.noise_power,
            "snr_db": self.snr_db,
            "runtime_s": self.runtime_s,
        }
        if self.extra:
            row["extra"] = dict(self.extra)
        return row


@dataclass
class AnalysisReport:
    """Full record of one pipeline run on one circuit.

    Attributes
    ----------
    circuit:
        Name of the analyzed circuit.
    output:
        Name of the analyzed output node (of the analysis-time graph).
    node_count / op_counts:
        Size and operation mix of the graph.
    sequential / horizon:
        Whether the design has state, and the unrolling depth used.
    word_length / total_bits:
        Summary of the word-length assignment.  ``word_length`` is the
        uniform baseline's width, or ``None`` for a caller's assignment
        (``summary()`` then prints its ``min..max`` word lengths).
    ranges / integer_bits / formats:
        Per-node range analysis products and the final formats
        (``describe()`` strings).
    signal_power:
        Output signal power used for SNR (uniform-over-range convention).
    results:
        One :class:`MethodResult` per analysis method run.
    enclosure:
        Per-method verdict of the Monte-Carlo cross-check: ``True`` when
        the method's bounds enclose every sampled error.  **Tri-state by
        omission**: the dict is *empty* when the Monte-Carlo method did
        not run, so "no verdict" and "all verdicts true" are different
        states that plain truthiness testing conflates.  Use
        :meth:`enclosure_verdict` instead of reducing this dict by hand
        (benchmark documents carry the same convention in their
        ``all_enclosed`` field: ``None`` = never cross-checked).
    """

    circuit: str
    output: str
    node_count: int
    op_counts: Dict[str, int]
    sequential: bool
    horizon: int
    word_length: int | None
    total_bits: int
    ranges: Dict[str, List[float]]
    integer_bits: Dict[str, int]
    formats: Dict[str, str]
    signal_power: float
    results: Dict[str, MethodResult] = field(default_factory=dict)
    enclosure: Dict[str, bool] = field(default_factory=dict)

    def result(self, method: str) -> MethodResult:
        """Result of one method; raises ``KeyError`` when it was not run."""
        return self.results[method]

    def enclosure_verdict(self) -> Optional[bool]:
        """Aggregate Monte-Carlo enclosure verdict, honoring the tri-state.

        Returns ``True`` when every cross-checked method enclosed the
        sampled errors, ``False`` when at least one violated them, and
        ``None`` when the Monte-Carlo cross-check never ran (no verdict
        exists — which is *not* a pass).  Callers gating on soundness
        should treat only ``False`` as a failure and only ``True`` as an
        affirmative pass.
        """
        if not self.enclosure:
            return None
        return all(self.enclosure.values())

    @property
    def methods(self) -> List[str]:
        """Methods present in the report, in insertion order."""
        return list(self.results)

    def to_dict(self) -> dict:
        """JSON-serializable view of the whole report."""
        return {
            "circuit": self.circuit,
            "output": self.output,
            "node_count": self.node_count,
            "op_counts": dict(self.op_counts),
            "sequential": self.sequential,
            "horizon": self.horizon,
            "word_length": self.word_length,
            "total_bits": self.total_bits,
            "signal_power": self.signal_power,
            "ranges": {name: list(pair) for name, pair in self.ranges.items()},
            "integer_bits": dict(self.integer_bits),
            "formats": dict(self.formats),
            "results": {m: r.to_dict() for m, r in self.results.items()},
            "enclosure": dict(self.enclosure),
        }

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        """Serialize to JSON, optionally writing to ``path``."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=False)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def summary(self) -> str:
        """A short human-readable multi-line summary."""
        width = self.word_length
        if width is None:
            # ``describe()`` strings read ``sQ<integer>.<fractional>``.
            lengths = [sum(map(int, fmt[2:].split("."))) for fmt in self.formats.values()]
            width = f"{min(lengths)}..{max(lengths)}"
        lines = [
            f"circuit={self.circuit} output={self.output} "
            f"nodes={self.node_count} W={width} "
            f"{'sequential' if self.sequential else 'combinational'}"
        ]
        for method, result in self.results.items():
            verdict: Optional[bool] = self.enclosure.get(method)
            tag = "" if verdict is None else ("  encloses-MC" if verdict else "  VIOLATES-MC")
            lines.append(
                f"  {method:10s} [{result.lower:+.6e}, {result.upper:+.6e}] "
                f"power={result.noise_power:.3e} snr={result.snr_db:6.1f}dB "
                f"t={result.runtime_s * 1e3:7.2f}ms{tag}"
            )
        return "\n".join(lines)
