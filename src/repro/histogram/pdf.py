"""The :class:`HistogramPDF` class: a discretized probability density.

A histogram PDF is the paper's representation of a noise symbol's
distribution: a contiguous partition of the support into bins, each bin
carrying a probability, with the density assumed uniform inside every
bin.  All the SNA machinery (Cartesian propagation, per-source noise
composition, output-error statistics) operates on these objects.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

import numpy as np

from repro.errors import HistogramError
from repro.histogram.arithmetic import (
    combine_histograms,
    mix_histograms,
    spread_intervals,
    transform_histogram,
)
from repro.intervals.interval import Interval

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
        non-negative probabilities with positive total): the binary
        combine / rebin kernels construct exactly that, and their call
        rate makes the re-validation measurable.  Normalizes in place.
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

    @classmethod
    def from_weighted_intervals(
        cls,
        intervals: Iterable[tuple[Interval, float]],
        bins: int = 16,
        edges: Sequence[Number] | None = None,
    ) -> "HistogramPDF":
        """Build a histogram from weighted intervals (uniform mass inside each)."""
        items = [(iv, float(p)) for iv, p in intervals if float(p) > 0.0]
        if not items:
            raise HistogramError("from_weighted_intervals requires positive total mass")
        lo = np.array([iv.lo for iv, _ in items])
        hi = np.array([iv.hi for iv, _ in items])
        prob = np.array([p for _, p in items])
        if edges is None:
            hull_lo = float(lo.min())
            hull_hi = float(hi.max())
            if hull_hi <= hull_lo:
                return cls.point(hull_lo)
            edges_arr = np.linspace(hull_lo, hull_hi, int(bins) + 1)
        else:
            edges_arr = np.asarray(edges, dtype=float)
        probs = spread_intervals(lo, hi, prob, edges_arr)
        return cls(edges_arr, probs)

    @classmethod
    def from_samples(
        cls, samples: Sequence[Number] | np.ndarray, bins: int = 64
    ) -> "HistogramPDF":
        """Empirical histogram of a sample set (used for Monte-Carlo references)."""
        samples_arr = np.asarray(samples, dtype=float)
        if samples_arr.size == 0:
            raise HistogramError("from_samples requires at least one sample")
        lo = float(samples_arr.min())
        hi = float(samples_arr.max())
        if hi <= lo:
            return cls.point(lo)
        counts, edges = np.histogram(samples_arr, bins=int(bins), range=(lo, hi))
        return cls(edges, counts.astype(float))

    @classmethod
    def from_density(
        cls,
        density: Callable[[np.ndarray], np.ndarray],
        lo: Number,
        hi: Number,
        bins: int = 64,
    ) -> "HistogramPDF":
        """Discretize a continuous density function over ``[lo, hi]``."""
        lo = float(lo)
        hi = float(hi)
        if hi <= lo:
            return cls.point(lo)
        edges = np.linspace(lo, hi, int(bins) + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        values = np.asarray(density(mids), dtype=float)
        if np.any(values < 0):
            raise HistogramError("density function returned negative values")
        widths = np.diff(edges)
        return cls(edges, values * widths)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def nbins(self) -> int:
        """Number of bins."""
        return int(self.probs.size)

    @property
    def support(self) -> Interval:
        """The full interval covered by the bin edges."""
        return Interval(float(self.edges[0]), float(self.edges[-1]))

    @property
    def midpoints(self) -> np.ndarray:
        """Bin midpoints."""
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        """Bin widths."""
        return np.diff(self.edges)

    def _degenerate_bins(self) -> np.ndarray:
        """Boolean mask of bins too narrow to carry a meaningful density.

        :meth:`point` represents an exact value as a bin of relative width
        ``2 * _POINT_HALF_WIDTH``; scaling or combining such histograms can
        shrink widths further, down to subnormals where ``probs / widths``
        overflows to ``inf``.  All density-based queries treat these bins
        as point masses instead of dividing by their width.
        """
        scale = np.maximum(np.abs(self.midpoints), 1.0)
        return self.widths <= 4.0 * _POINT_HALF_WIDTH * scale

    def is_point(self, tol: float = 1e-9) -> bool:
        """True when the whole mass is concentrated in a negligible width."""
        return self.support.width <= tol * max(1.0, abs(self.support.midpoint))

    def density(self) -> np.ndarray:
        """Probability density value inside each bin (mass / width).

        Degenerate (point-mass) bins have no finite density; they report
        0.0 here rather than ``inf``/NaN — their mass is still present in
        :attr:`probs`.
        """
        degenerate = self._degenerate_bins()
        widths = np.where(degenerate, 1.0, self.widths)
        return np.where(degenerate, 0.0, self.probs / widths)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramPDF(bins={self.nbins}, support=[{self.support.lo:g}, "
            f"{self.support.hi:g}], mean={self.mean():.4g})"
        )

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def mean(self) -> float:
        """Expected value (uniform-within-bin assumption)."""
        return float(np.sum(self.probs * self.midpoints))

    def moment(self, order: int, central: bool = False) -> float:
        """Raw or central moment of the given order.

        Uses the exact moment of the uniform density inside each bin, so
        the second moment includes the ``width^2 / 12`` within-bin term.
        """
        if order < 0:
            raise HistogramError(f"moment order must be >= 0, got {order}")
        shift = self.mean() if central else 0.0
        a = self.edges[:-1] - shift
        b = self.edges[1:] - shift
        widths = self.widths
        # E[x^k] over uniform [a, b] = (b^(k+1) - a^(k+1)) / ((k+1) (b - a))
        k = order
        with np.errstate(invalid="ignore"):
            per_bin = (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * widths)
        return float(np.sum(self.probs * per_bin))

    def variance(self) -> float:
        """Variance (uniform-within-bin assumption)."""
        return max(0.0, self.moment(2, central=True))

    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.variance()))

    def mean_square(self) -> float:
        """Second raw moment ``E[x^2]`` — the paper's "noise power".

        Uses the closed form ``E[x^2]`` over a uniform ``[a, b]`` segment,
        ``(a^2 + ab + b^2) / 3``, which needs no width division and is
        therefore robust for degenerate (point-mass) bins too.
        """
        a = self.edges[:-1]
        b = self.edges[1:]
        return float(np.sum(self.probs * (a * a + a * b + b * b)) / 3.0)

    def bounds(self, mass_tol: float = 0.0) -> Interval:
        """Smallest interval containing all bins with probability > ``mass_tol``."""
        significant = np.nonzero(self.probs > mass_tol)[0]
        if significant.size == 0:
            return self.support
        first = int(significant[0])
        last = int(significant[-1])
        return Interval(float(self.edges[first]), float(self.edges[last + 1]))

    def probability_of(self, interval: Interval) -> float:
        """Probability mass falling inside ``interval``.

        Degenerate (point-mass) bins contribute their full mass when their
        midpoint lies inside ``interval`` instead of dividing overlap by a
        (near-)zero width.
        """
        lo = np.maximum(self.edges[:-1], interval.lo)
        hi = np.minimum(self.edges[1:], interval.hi)
        overlap = np.clip(hi - lo, 0.0, None)
        degenerate = self._degenerate_bins()
        widths = np.where(degenerate, 1.0, self.widths)
        fraction = np.where(
            degenerate,
            ((self.midpoints >= interval.lo) & (self.midpoints <= interval.hi)).astype(float),
            overlap / widths,
        )
        return float(np.sum(self.probs * fraction))

    def cdf(self, x: Number) -> float:
        """Cumulative distribution function at ``x``."""
        x = float(x)
        if x <= self.edges[0]:
            return 0.0
        if x >= self.edges[-1]:
            return 1.0
        idx = int(np.searchsorted(self.edges, x, side="right") - 1)
        idx = min(max(idx, 0), self.nbins - 1)
        below = float(np.sum(self.probs[:idx]))
        width = self.edges[idx + 1] - self.edges[idx]
        frac = (x - self.edges[idx]) / width if width > 0 else 1.0
        return below + float(self.probs[idx]) * frac

    def quantile(self, q: float) -> float:
        """Inverse CDF for ``q`` in ``[0, 1]``."""
        if not 0.0 <= q <= 1.0:
            raise HistogramError(f"quantile level must be in [0, 1], got {q}")
        cumulative = np.concatenate([[0.0], np.cumsum(self.probs)])
        cumulative[-1] = 1.0
        idx = int(np.searchsorted(cumulative, q, side="left"))
        idx = min(max(idx - 1, 0), self.nbins - 1)
        mass_before = cumulative[idx]
        bin_mass = self.probs[idx]
        if bin_mass <= 0:
            return float(self.edges[idx])
        frac = (q - mass_before) / bin_mass
        frac = min(max(frac, 0.0), 1.0)
        return float(self.edges[idx] + frac * (self.edges[idx + 1] - self.edges[idx]))

    def entropy(self) -> float:
        """Differential entropy estimate (nats) of the piecewise-uniform density.

        Only the continuous part of the distribution contributes: a
        degenerate (point-mass) bin has ``-inf`` differential entropy in
        the limit, so such bins are excluded rather than poisoning the sum
        with ``inf``/NaN.  A pure point histogram therefore reports 0.0.
        """
        densities = self.density()
        mask = (self.probs > 0) & ~self._degenerate_bins()
        if not np.any(mask):
            return 0.0
        return float(-np.sum(self.probs[mask] * np.log(densities[mask])))

    # ------------------------------------------------------------------ #
    # reshaping
    # ------------------------------------------------------------------ #
    def rebin(self, bins: int | Sequence[Number]) -> "HistogramPDF":
        """Re-discretize onto ``bins`` equal bins (or the given edges)."""
        if isinstance(bins, int):
            if bins < 1:
                raise HistogramError(f"bins must be >= 1, got {bins}")
            new_edges = np.linspace(self.edges[0], self.edges[-1], bins + 1)
        else:
            new_edges = np.asarray(bins, dtype=float)
        probs = spread_intervals(self.edges[:-1], self.edges[1:], self.probs, new_edges)
        return HistogramPDF(new_edges, probs)

    # ------------------------------------------------------------------ #
    # unary arithmetic
    # ------------------------------------------------------------------ #
    def scale(self, factor: Number) -> "HistogramPDF":
        """Distribution of ``factor * X``."""
        factor = float(factor)
        if factor == 0.0:
            return HistogramPDF.point(0.0)
        new_edges = self.edges * factor
        new_probs = self.probs
        if factor < 0:
            new_edges = new_edges[::-1]
            new_probs = new_probs[::-1]
        # Monotone transform of already-valid bins: skip re-validation.
        pdf = object.__new__(HistogramPDF)
        pdf.edges = np.ascontiguousarray(new_edges)
        pdf.probs = new_probs.copy()
        return pdf

    def shift(self, offset: Number) -> "HistogramPDF":
        """Distribution of ``X + offset``."""
        pdf = object.__new__(HistogramPDF)
        pdf.edges = self.edges + float(offset)
        pdf.probs = self.probs.copy()
        return pdf

    def __neg__(self) -> "HistogramPDF":
        return self.scale(-1.0)

    def _unary(self, op: str, bins: int | None = None) -> "HistogramPDF":
        """Push the distribution through a vectorized unary kernel."""
        out_bins = self.nbins if bins is None else int(bins)
        edges, probs = transform_histogram(self.edges, self.probs, op, out_bins)
        return HistogramPDF._trusted(edges, probs)

    def square(self) -> "HistogramPDF":
        """Distribution of ``X ** 2`` (dependency-aware, unlike ``X * X``)."""
        return self._unary("square")

    def __abs__(self) -> "HistogramPDF":
        return self._unary("abs")

    def sqrt(self, bins: int | None = None) -> "HistogramPDF":
        """Distribution of ``sqrt(X)`` (support must be non-negative)."""
        return self._unary("sqrt", bins)

    def exp(self, bins: int | None = None) -> "HistogramPDF":
        """Distribution of ``exp(X)``."""
        return self._unary("exp", bins)

    def log(self, bins: int | None = None) -> "HistogramPDF":
        """Distribution of ``log(X)`` (support must be strictly positive)."""
        return self._unary("log", bins)

    @classmethod
    def mixture(
        cls,
        parts: Iterable[tuple["HistogramPDF", float]],
        bins: int | None = None,
    ) -> "HistogramPDF":
        """Mixture distribution: draw from part ``k`` with weight ``w_k``.

        The sound SNA reading of data-dependent selection — a
        ``min``/``max``/``mux`` output follows one operand or the other,
        so its error distribution is a branch-probability-weighted blend
        whose support is the hull of the component supports.
        """
        items = [(pdf, float(w)) for pdf, w in parts]
        if bins is None:
            bins = max((pdf.nbins for pdf, _ in items), default=1)
        edges, probs = mix_histograms(
            [(pdf.edges, pdf.probs, weight) for pdf, weight in items], int(bins)
        )
        return cls._trusted(edges, probs)

    # ------------------------------------------------------------------ #
    # binary arithmetic (independent operands)
    # ------------------------------------------------------------------ #
    def _combine(
        self, other: "HistogramPDF | Number", op: str, bins: int | None = None
    ) -> "HistogramPDF":
        other_pdf = other if isinstance(other, HistogramPDF) else HistogramPDF.point(float(other))
        out_bins = bins if bins is not None else max(self.nbins, other_pdf.nbins)
        edges, probs = combine_histograms(
            self.edges, self.probs, other_pdf.edges, other_pdf.probs, op, out_bins
        )
        return HistogramPDF._trusted(edges, probs)

    def _as_point(self) -> float | None:
        """The midpoint when this histogram is a numerical point mass.

        A point-mass operand turns a full pairwise combine into an exact
        shift/scale; the :meth:`point` constructor (and every scale of
        it) satisfies this, which covers constants and deterministic
        constant-quantization errors on the SNA hot path.
        """
        if self.probs.size != 1:
            return None
        lo = float(self.edges[0])
        hi = float(self.edges[1])
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-9 * max(1.0, abs(mid)):
            return mid
        return None

    def add(self, other: "HistogramPDF | Number", bins: int | None = None) -> "HistogramPDF":
        """Distribution of ``X + Y`` for independent operands."""
        if isinstance(other, (int, float)):
            return self.shift(other)
        point = other._as_point()
        if point is not None:
            return self.shift(point)
        point = self._as_point()
        if point is not None:
            return other.shift(point)
        return self._combine(other, "add", bins)

    def sub(self, other: "HistogramPDF | Number", bins: int | None = None) -> "HistogramPDF":
        """Distribution of ``X - Y`` for independent operands."""
        if isinstance(other, (int, float)):
            return self.shift(-float(other))
        point = other._as_point()
        if point is not None:
            return self.shift(-point)
        point = self._as_point()
        if point is not None:
            return (-other).shift(point)
        return self._combine(other, "sub", bins)

    def mul(self, other: "HistogramPDF | Number", bins: int | None = None) -> "HistogramPDF":
        """Distribution of ``X * Y`` for independent operands."""
        if isinstance(other, (int, float)):
            return self.scale(other)
        point = other._as_point()
        if point is not None:
            return self.scale(point)
        point = self._as_point()
        if point is not None:
            return other.scale(point)
        return self._combine(other, "mul", bins)

    def div(self, other: "HistogramPDF | Number", bins: int | None = None) -> "HistogramPDF":
        """Distribution of ``X / Y`` for independent operands (Y must avoid 0)."""
        if isinstance(other, (int, float)):
            if other == 0:
                raise HistogramError("division by zero scalar")
            return self.scale(1.0 / float(other))
        point = other._as_point()
        # The shortcut must not bypass the divisor-contains-zero check: a
        # near-point divisor whose (tiny) support still straddles zero
        # falls through to the combine kernel, which raises.
        if point is not None and (other.edges[0] > 0.0 or other.edges[-1] < 0.0):
            return self.scale(1.0 / point)
        return self._combine(other, "div", bins)

    def minimum(
        self, other: "HistogramPDF | Number", bins: int | None = None
    ) -> "HistogramPDF":
        """Distribution of ``min(X, Y)`` for independent operands."""
        if isinstance(other, (int, float)):
            other = HistogramPDF.point(float(other))
        return self._combine(other, "min", bins)

    def maximum(
        self, other: "HistogramPDF | Number", bins: int | None = None
    ) -> "HistogramPDF":
        """Distribution of ``max(X, Y)`` for independent operands."""
        if isinstance(other, (int, float)):
            other = HistogramPDF.point(float(other))
        return self._combine(other, "max", bins)

    def __add__(self, other: "HistogramPDF | Number") -> "HistogramPDF":
        return self.add(other)

    __radd__ = __add__

    def __sub__(self, other: "HistogramPDF | Number") -> "HistogramPDF":
        return self.sub(other)

    def __rsub__(self, other: "HistogramPDF | Number") -> "HistogramPDF":
        return (-self).add(other)

    def __mul__(self, other: "HistogramPDF | Number") -> "HistogramPDF":
        return self.mul(other)

    __rmul__ = __mul__

    def __truediv__(self, other: "HistogramPDF | Number") -> "HistogramPDF":
        return self.div(other)

    # ------------------------------------------------------------------ #
    # comparison helpers
    # ------------------------------------------------------------------ #
    def almost_equal(self, other: "HistogramPDF", moment_tol: float = 1e-6) -> bool:
        """Loose equality: same support and first two moments within ``moment_tol``."""
        return (
            self.support.almost_equal(other.support, tol=moment_tol)
            and abs(self.mean() - other.mean()) <= moment_tol
            and abs(self.variance() - other.variance()) <= moment_tol
        )

    def copy(self) -> "HistogramPDF":
        """An independent copy (the arrays are copied, not re-validated)."""
        pdf = object.__new__(HistogramPDF)
        pdf.edges = self.edges.copy()
        pdf.probs = self.probs.copy()
        return pdf

    def total_mass(self) -> float:
        """Total probability (1.0 up to floating-point rounding)."""
        return float(self.probs.sum())
