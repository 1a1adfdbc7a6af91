"""The :class:`HistogramPDF` class: a discretized probability density.

A histogram PDF is the paper's representation of a distribution: a
contiguous partition of the support into bins, each bin carrying a
probability, with the density assumed uniform inside every bin.
:func:`repro.analysis.probabilistic.affine_error_pdf` discretizes an
affine error into it on request.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import HistogramError
from repro.histogram.arithmetic import combine_histograms

__all__ = ["HistogramPDF"]

Number = Union[int, float]

#: Relative half-width used to represent exact point masses as a tiny bin.
_POINT_HALF_WIDTH = 1e-12


class HistogramPDF:
    """A piecewise-uniform probability density over contiguous bins.

    Parameters
    ----------
    edges:
        Strictly increasing bin edges (``n + 1`` values for ``n`` bins).
    probs:
        Probability mass per bin.  Must be non-negative; it is normalized
        to sum to one unless ``normalize=False`` is passed (in which case
        the sum must already be one to numerical precision).
    """

    __slots__ = ("edges", "probs")

    def __init__(
        self,
        edges: Sequence[Number] | np.ndarray,
        probs: Sequence[Number] | np.ndarray,
        normalize: bool = True,
    ) -> None:
        edges_arr = np.asarray(edges, dtype=float)
        probs_arr = np.asarray(probs, dtype=float).copy()
        if edges_arr.ndim != 1 or edges_arr.size < 2:
            raise HistogramError("edges must be a 1-D array with at least two entries")
        if probs_arr.ndim != 1 or probs_arr.size != edges_arr.size - 1:
            raise HistogramError(
                f"probs must have len(edges) - 1 = {edges_arr.size - 1} entries, "
                f"got {probs_arr.size}"
            )
        finite = np.isfinite(edges_arr)
        if not finite.all():
            raise HistogramError(f"edges must be finite, got {float(edges_arr[~finite][0])!r}")
        if np.any(np.diff(edges_arr) <= 0):
            raise HistogramError("edges must be strictly increasing")
        if np.any(probs_arr < -1e-15):
            raise HistogramError("probabilities must be non-negative")
        np.clip(probs_arr, 0.0, None, out=probs_arr)
        total = float(probs_arr.sum())
        if total <= 0.0:
            raise HistogramError("total probability mass must be positive")
        if normalize:
            probs_arr /= total
        elif abs(total - 1.0) > 1e-9:
            raise HistogramError(f"probabilities must sum to 1, got {total}")
        self.edges = edges_arr
        self.probs = probs_arr

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _trusted(cls, edges: np.ndarray, probs: np.ndarray) -> "HistogramPDF":
        """Validation-free constructor for kernel-produced histograms.

        Only for float arrays that already satisfy every ``__init__``
        invariant except normalization (strictly increasing edges,
        non-negative probabilities with positive total), which the
        combine kernel constructs.  Normalizes.
        """
        pdf = object.__new__(cls)
        total = probs.sum()
        if not total > 0.0:
            raise HistogramError("total probability mass must be positive")
        pdf.edges = edges
        pdf.probs = probs / total
        return pdf

    @classmethod
    def uniform(cls, lo: Number, hi: Number, bins: int = 16) -> "HistogramPDF":
        """A uniform density over ``[lo, hi]`` discretized into ``bins`` bins."""
        bins = int(bins)
        if bins < 1:
            raise HistogramError(f"bins must be >= 1, got {bins}")
        lo = float(lo)
        hi = float(hi)
        if hi <= lo:
            return cls.point(lo)
        edges = np.linspace(lo, hi, bins + 1)
        probs = np.full(bins, 1.0 / bins)
        return cls(edges, probs, normalize=False)

    @classmethod
    def point(cls, value: Number) -> "HistogramPDF":
        """A (numerically) degenerate distribution concentrated at ``value``."""
        value = float(value)
        half = max(abs(value), 1.0) * _POINT_HALF_WIDTH
        return cls(np.array([value - half, value + half]), np.array([1.0]), normalize=False)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def nbins(self) -> int:
        """Number of bins."""
        return int(self.probs.size)

    def mean(self) -> float:
        """Expected value (uniform-within-bin assumption)."""
        midpoints = 0.5 * (self.edges[:-1] + self.edges[1:])
        return float(np.sum(self.probs * midpoints))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramPDF(bins={self.nbins}, support=[{self.edges[0]:g}, "
            f"{self.edges[-1]:g}], mean={self.mean():.4g})"
        )

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def shift(self, offset: Number) -> "HistogramPDF":
        """Distribution of ``X + offset``."""
        pdf = object.__new__(HistogramPDF)
        pdf.edges = self.edges + float(offset)
        pdf.probs = self.probs.copy()
        return pdf

    def _as_point(self) -> float | None:
        """The midpoint when this histogram is a numerical point mass.

        A point-mass operand turns a full pairwise combine into an exact
        shift; the :meth:`point` constructor satisfies this.
        """
        if self.probs.size != 1:
            return None
        lo = float(self.edges[0])
        hi = float(self.edges[1])
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-9 * max(1.0, abs(mid)):
            return mid
        return None

    def add(self, other: "HistogramPDF", bins: int | None = None) -> "HistogramPDF":
        """Distribution of ``X + Y`` for independent operands.

        The result spreads over ``bins`` equal bins (default: the larger
        operand's bin count); a point-mass operand shifts the other.
        """
        point = other._as_point()
        if point is not None:
            return self.shift(point)
        point = self._as_point()
        if point is not None:
            return other.shift(point)
        out_bins = bins if bins is not None else max(self.nbins, other.nbins)
        edges, probs = combine_histograms(
            self.edges, self.probs, other.edges, other.probs, out_bins
        )
        return HistogramPDF._trusted(edges, probs)
