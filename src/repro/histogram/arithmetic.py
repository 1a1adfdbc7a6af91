"""The histogram-sum kernel behind PDF convolution.

:func:`_spread_core` accumulates weighted intervals (each carrying some
probability mass, assumed uniform over the interval) onto a target set
of contiguous bins, proportionally to the overlap.
:func:`combine_histograms` reduces the sum of two independent
histograms to it: every pair of operand bins adds as intervals, carries
the product of the bin probabilities, and is spread over equal result
bins.  Both are vectorized with numpy, with no Python-level bin loop.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import HistogramError

__all__ = ["combine_histograms"]

#: Reusable 0..n ramps for the equal-width output edges of combines.
_ARANGE_CACHE: dict = {}


def _spread_core(
    lo: np.ndarray,
    hi: np.ndarray,
    prob: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Spread weighted intervals ``[lo_k, hi_k]`` of mass ``prob_k`` onto ``edges``.

    Validation-free: callers must guarantee float arrays of equal shape,
    strictly increasing edges covering every interval, and ``lo <= hi`` —
    exactly what the histogram sum constructs by design.  Scatter is
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


def combine_histograms(
    edges_a: np.ndarray,
    probs_a: np.ndarray,
    edges_b: np.ndarray,
    probs_b: np.ndarray,
    out_bins: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The distribution of ``X + Y`` for independent histograms ``X`` and ``Y``.

    Implements the paper's histogram arithmetic for a sum: every pair of
    operand bins adds as intervals, the pair probability is the product
    of the bin probabilities, and the result mass is spread over
    ``out_bins`` equal bins covering the hull of all pair results.

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

    res_lo = lo_a[:, None] + lo_b[None, :]
    res_hi = hi_a[:, None] + hi_b[None, :]

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
    # The edges were just built to cover the hull of every pair result.
    probs = _spread_core(flat_lo, flat_hi, flat_prob, edges)
    return edges, probs
