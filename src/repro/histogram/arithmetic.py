"""Low-level kernels for histogram (probability-box) arithmetic.

The central primitive is :func:`spread_intervals`: given a collection of
weighted intervals (each carrying some probability mass, assumed uniform
over the interval), accumulate the mass onto a target set of contiguous
bins proportionally to the overlap.  Every histogram operator — binary
combinations, rebinning, scaling — reduces to producing weighted
intervals and spreading them.

The binary kernels are vectorized with numpy because the noise analyzer
composes hundreds of error sources for the larger case-study designs.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.errors import DivisionByZeroIntervalError, DomainError, HistogramError
from repro.intervals.interval import Interval

__all__ = [
    "spread_intervals",
    "pairwise_op",
    "unary_interval_op",
    "transform_histogram",
    "mix_histograms",
    "combine_histograms",
    "SUPPORTED_BINARY_OPS",
    "SUPPORTED_UNARY_OPS",
]

#: Binary operations with a dedicated vectorized kernel.
SUPPORTED_BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")

#: Unary operations with a dedicated vectorized kernel.
SUPPORTED_UNARY_OPS = ("neg", "abs", "square", "sqrt", "exp", "log")

#: Reusable 0..n ramps for the equal-width output edges of combines.
_ARANGE_CACHE: dict = {}


def spread_intervals(
    lo: np.ndarray,
    hi: np.ndarray,
    prob: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Spread weighted intervals onto contiguous bins.

    Parameters
    ----------
    lo, hi, prob:
        Arrays of equal length describing intervals ``[lo_k, hi_k]`` each
        carrying probability ``prob_k`` (mass assumed uniformly
        distributed over the interval).
    edges:
        Strictly increasing bin edges of the target histogram.  The edges
        must cover every interval; mass falling outside would otherwise be
        silently lost, so a :class:`HistogramError` is raised instead.

    Returns
    -------
    numpy.ndarray
        Probability per target bin (same order as ``edges`` pairs).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    prob = np.asarray(prob, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if lo.shape != hi.shape or lo.shape != prob.shape:
        raise HistogramError("lo, hi and prob must have identical shapes")
    if edges.ndim != 1 or edges.size < 2:
        raise HistogramError("edges must be a 1-D array with at least two entries")
    if np.any(np.diff(edges) <= 0):
        raise HistogramError("edges must be strictly increasing")
    if np.any(hi < lo):
        raise HistogramError("every interval must satisfy lo <= hi")

    tol = 1e-12 * max(1.0, float(np.max(np.abs(edges))))
    if lo.size and (np.min(lo) < edges[0] - tol or np.max(hi) > edges[-1] + tol):
        raise HistogramError(
            "target edges do not cover the spread intervals: "
            f"[{np.min(lo)}, {np.max(hi)}] vs [{edges[0]}, {edges[-1]}]"
        )

    return _spread_core(lo, hi, prob, edges)


def _spread_core(
    lo: np.ndarray,
    hi: np.ndarray,
    prob: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Validation-free scatter kernel behind :func:`spread_intervals`.

    Internal: callers must guarantee float arrays of equal shape,
    strictly increasing covering edges and ``lo <= hi`` — exactly what
    the histogram operators construct by design.  Scatter is
    O(n_intervals + n_bins): each interval touches only its first and
    last (possibly partial) bins directly; the full bins in between are
    accumulated through a density difference array whose cumulative sum
    yields the per-bin density, so no Python-level loop over bins or
    intervals is needed.
    """
    n_bins = edges.size - 1
    if lo.size == 0:
        return np.zeros(n_bins, dtype=float)

    # Searching the interior edges yields the bin index already clipped to
    # [0, n_bins - 1]: one binary search per value and no index arithmetic.
    inner = edges[1:-1]
    lower = edges[:-1]
    upper = edges[1:]
    width = hi - lo
    is_point = width <= 0.0
    point_mass = None
    if is_point.any():
        idx = inner.searchsorted(lo[is_point], "right")
        point_mass = np.bincount(idx, weights=prob[is_point], minlength=n_bins)
        has_width = ~is_point
        if not has_width.any():
            return point_mass
        lo = lo[has_width]
        hi = hi[has_width]
        density = prob[has_width] / width[has_width]
    else:
        density = prob / width

    # np.bincount beats np.add.at by a wide margin for these scatter sizes.
    first = inner.searchsorted(lo, "right")
    last = inner.searchsorted(hi, "left")
    lo_c = np.maximum(lo, lower[first])
    hi_c = np.minimum(hi, upper[last])

    # First and last (possibly partial) bin of every interval, plus the
    # full interior bins through a density difference array.  A
    # single-bin interval needs no special case: head + tail double-count
    # one bin width, and the difference-array ramp contributes exactly
    # minus that width at the same bin, so the sum is density * overlap.
    head = density * (upper[first] - lo_c)
    tail = density * (hi_c - lower[last])
    out = np.bincount(first, weights=head, minlength=n_bins)
    out += np.bincount(last, weights=tail, minlength=n_bins)

    ramp = np.bincount(first + 1, weights=density, minlength=n_bins + 2)
    ramp -= np.bincount(last, weights=density, minlength=n_bins + 2)
    out += ramp[:n_bins].cumsum() * (upper - lower)
    # The cancellation above is exact up to rounding; clamp the float dust
    # so zero-mass bins cannot go (harmlessly but confusingly) negative.
    np.maximum(out, 0.0, out=out)

    if point_mass is not None:
        out += point_mass
    return out


def pairwise_op(
    op: str,
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized interval arithmetic on broadcast operand grids.

    ``lo_a/hi_a`` and ``lo_b/hi_b`` must already be broadcast against each
    other (typically via meshgrid/outer indexing).  Returns the result
    bounds for the requested operation.
    """
    if op == "add":
        return lo_a + lo_b, hi_a + hi_b
    if op == "sub":
        return lo_a - hi_b, hi_a - lo_b
    if op == "mul":
        p1 = lo_a * lo_b
        p2 = lo_a * hi_b
        p3 = hi_a * lo_b
        p4 = hi_a * hi_b
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return lo, hi
    if op == "div":
        if np.any((lo_b <= 0.0) & (hi_b >= 0.0)):
            raise DivisionByZeroIntervalError("histogram division: divisor bins contain zero")
        inv_lo = 1.0 / hi_b
        inv_hi = 1.0 / lo_b
        return pairwise_op("mul", lo_a, hi_a, inv_lo, inv_hi)
    if op == "min":
        return np.minimum(lo_a, lo_b), np.minimum(hi_a, hi_b)
    if op == "max":
        return np.maximum(lo_a, lo_b), np.maximum(hi_a, hi_b)
    raise HistogramError(f"unsupported binary operation {op!r}")


def unary_interval_op(
    op: str,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized exact image of a unary operation on interval arrays.

    ``sqrt``/``exp``/``log`` are monotone; ``abs``/``square`` handle
    sign-crossing intervals with the dependency-aware lower bound of 0.
    ``sqrt``/``log`` raise :class:`~repro.errors.DomainError` when any
    interval leaves the function's domain instead of letting NaN/-inf
    leak into the result bins.
    """
    if op == "neg":
        return -hi, -lo
    if op == "abs":
        alo = np.abs(lo)
        ahi = np.abs(hi)
        crossing = (lo < 0.0) & (hi > 0.0)
        res_lo = np.where(crossing, 0.0, np.minimum(alo, ahi))
        return res_lo, np.maximum(alo, ahi)
    if op == "square":
        slo = lo * lo
        shi = hi * hi
        crossing = (lo < 0.0) & (hi > 0.0)
        res_lo = np.where(crossing, 0.0, np.minimum(slo, shi))
        return res_lo, np.maximum(slo, shi)
    if op == "sqrt":
        if lo.size and float(np.min(lo)) < 0.0:
            raise DomainError(
                f"sqrt requires non-negative bins, got a bin reaching {float(np.min(lo))}"
            )
        return np.sqrt(lo), np.sqrt(hi)
    if op == "exp":
        return np.exp(lo), np.exp(hi)
    if op == "log":
        if lo.size and float(np.min(lo)) <= 0.0:
            raise DomainError(
                f"log requires strictly positive bins, got a bin reaching {float(np.min(lo))}"
            )
        return np.log(lo), np.log(hi)
    raise HistogramError(f"unsupported unary operation {op!r}")


def transform_histogram(
    edges: np.ndarray,
    probs: np.ndarray,
    op: str,
    out_bins: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Push a histogram through a unary operation, fully vectorized.

    Every positive-mass bin is mapped through the exact interval image of
    ``op`` and the mass is spread over ``out_bins`` equal result bins —
    the unary counterpart of :func:`combine_histograms`, with no
    Python-level loop over bins.
    """
    edges = np.asarray(edges, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if out_bins < 1:
        raise HistogramError(f"out_bins must be >= 1, got {out_bins}")
    keep = probs > 0.0
    lo = edges[:-1][keep]
    hi = edges[1:][keep]
    mass = probs[keep]
    if lo.size == 0:
        raise HistogramError("cannot transform a histogram with no probability mass")
    res_lo, res_hi = unary_interval_op(op, lo, hi)

    hull_lo = float(res_lo.min())
    hull_hi = float(res_hi.max())
    if hull_hi <= hull_lo:
        half_width = max(abs(hull_lo), 1.0) * 1e-12
        out_edges = np.array([hull_lo - half_width, hull_lo + half_width])
        return out_edges, np.array([float(np.sum(mass))])
    out_edges = np.linspace(hull_lo, hull_hi, out_bins + 1)
    out_edges[-1] = hull_hi
    return out_edges, _spread_core(res_lo, res_hi, mass, out_edges)


def mix_histograms(
    parts: "list[Tuple[np.ndarray, np.ndarray, float]]",
    out_bins: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mixture of several histograms with the given non-negative weights.

    ``parts`` is a list of ``(edges, probs, weight)``; the result is the
    distribution of a value drawn from part ``k`` with probability
    proportional to ``weight_k``, spread over ``out_bins`` equal bins
    covering the hull of every component's support.  This is the SNA
    kernel behind data-dependent selection (``min``/``max``/``mux``
    branch blends).
    """
    if out_bins < 1:
        raise HistogramError(f"out_bins must be >= 1, got {out_bins}")
    lo_parts = []
    hi_parts = []
    mass_parts = []
    for edges, probs, weight in parts:
        weight = float(weight)
        if weight < 0.0:
            raise HistogramError(f"mixture weights must be >= 0, got {weight}")
        if weight == 0.0:
            continue
        edges = np.asarray(edges, dtype=float)
        probs = np.asarray(probs, dtype=float)
        lo_parts.append(edges[:-1])
        hi_parts.append(edges[1:])
        mass_parts.append(probs * weight)
    if not lo_parts:
        raise HistogramError("mixture requires at least one positive-weight component")
    lo = np.concatenate(lo_parts)
    hi = np.concatenate(hi_parts)
    mass = np.concatenate(mass_parts)

    hull_lo = float(lo.min())
    hull_hi = float(hi.max())
    if hull_hi <= hull_lo:
        half_width = max(abs(hull_lo), 1.0) * 1e-12
        out_edges = np.array([hull_lo - half_width, hull_lo + half_width])
        return out_edges, np.array([float(np.sum(mass))])
    out_edges = np.linspace(hull_lo, hull_hi, out_bins + 1)
    out_edges[-1] = hull_hi
    return out_edges, _spread_core(lo, hi, mass, out_edges)


def combine_histograms(
    edges_a: np.ndarray,
    probs_a: np.ndarray,
    edges_b: np.ndarray,
    probs_b: np.ndarray,
    op: str | Callable[[Interval, Interval], Interval],
    out_bins: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine two histograms under a binary operation.

    Implements the paper's histogram arithmetic: every pair of operand
    bins is combined with interval arithmetic, the pair probability is the
    product of the bin probabilities (operands are treated as
    independent), and the result mass is spread over ``out_bins`` equal
    bins covering the hull of all pair results.

    ``op`` is either one of :data:`SUPPORTED_BINARY_OPS` (vectorized) or a
    callable ``Interval x Interval -> Interval`` (generic, slower).

    Returns ``(edges, probs)`` of the result histogram.
    """
    probs_a = np.asarray(probs_a, dtype=float)
    probs_b = np.asarray(probs_b, dtype=float)
    edges_a = np.asarray(edges_a, dtype=float)
    edges_b = np.asarray(edges_b, dtype=float)
    if out_bins < 1:
        raise HistogramError(f"out_bins must be >= 1, got {out_bins}")

    lo_a = edges_a[:-1]
    hi_a = edges_a[1:]
    lo_b = edges_b[:-1]
    hi_b = edges_b[1:]

    if callable(op) and not isinstance(op, str):
        # Generic escape hatch: a ufunc wrapper evaluates the Interval
        # callable over the broadcast pair grid (no explicit bin loops;
        # the string-op fast path below is the fully vectorized kernel).
        def _cell(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> Interval:
            return op(Interval(a_lo, a_hi), Interval(b_lo, b_hi))

        cells = np.frompyfunc(_cell, 4, 1)(
            lo_a[:, None], hi_a[:, None], lo_b[None, :], hi_b[None, :]
        )
        res_lo = np.frompyfunc(lambda cell: cell.lo, 1, 1)(cells).astype(float)
        res_hi = np.frompyfunc(lambda cell: cell.hi, 1, 1)(cells).astype(float)
    else:
        res_lo, res_hi = pairwise_op(
            str(op), lo_a[:, None], hi_a[:, None], lo_b[None, :], hi_b[None, :]
        )

    pair_prob = (probs_a[:, None] * probs_b).ravel()

    flat_lo = np.ascontiguousarray(res_lo, dtype=float).reshape(-1)
    flat_hi = np.ascontiguousarray(res_hi, dtype=float).reshape(-1)
    flat_prob = pair_prob

    # Zero-mass pairs must not stretch the hull; skip the boolean filter
    # (three fancy-index copies) in the common all-positive case.
    if flat_prob.min() <= 0.0:
        keep = flat_prob > 0.0
        flat_lo = flat_lo[keep]
        flat_hi = flat_hi[keep]
        flat_prob = flat_prob[keep]
    if flat_lo.size == 0:
        raise HistogramError("cannot combine histograms with no probability mass")

    hull_lo = float(flat_lo.min())
    hull_hi = float(flat_hi.max())
    if hull_hi <= hull_lo:
        # Degenerate result (a point mass): a single tiny bin keeps the
        # invariants of strictly increasing edges.
        half_width = max(abs(hull_lo), 1.0) * 1e-12
        edges = np.array([hull_lo - half_width, hull_lo + half_width])
        return edges, np.array([float(np.sum(flat_prob))])

    # Equivalent of np.linspace(hull_lo, hull_hi, out_bins + 1) without
    # linspace's per-call overhead; the exact endpoint is restored so the
    # scatter's index clip sees covering edges.
    base = _ARANGE_CACHE.get(out_bins)
    if base is None:
        base = np.arange(out_bins + 1, dtype=float)
        _ARANGE_CACHE[out_bins] = base
    edges = base * ((hull_hi - hull_lo) / out_bins) + hull_lo
    edges[-1] = hull_hi
    # The edges were just built to cover the hull of every pair result,
    # so the validation in spread_intervals would be pure overhead here.
    probs = _spread_core(flat_lo, flat_hi, flat_prob, edges)
    return edges, probs
