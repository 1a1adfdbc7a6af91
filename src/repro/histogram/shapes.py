"""Common probability-density shapes used by the error models.

The paper stresses that SNA places *no restriction* on the noise-symbol
PDFs — a symbol can carry a practically extracted or stimulus-based
distribution.  These constructors cover the quantization-error densities the
noise models attach to every rounding or truncating node (uniform over
``[-q/2, q/2]`` or ``[-q, 0]``) and a truncated Gaussian for measured
noise.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import HistogramError
from repro.histogram.pdf import HistogramPDF
from repro.utils.mathutils import ulp

__all__ = [
    "gaussian_histogram",
    "quantization_error_histogram",
]

Number = Union[int, float]


def gaussian_histogram(
    mean: Number = 0.0,
    std: Number = 1.0,
    bins: int = 64,
    clip_sigmas: float = 4.0,
) -> HistogramPDF:
    """Truncated Gaussian density over ``mean +/- clip_sigmas * std``."""
    mean = float(mean)
    std = float(std)
    if std <= 0:
        return HistogramPDF.point(mean)
    if clip_sigmas <= 0:
        raise HistogramError(f"clip_sigmas must be positive, got {clip_sigmas}")
    lo = mean - clip_sigmas * std
    hi = mean + clip_sigmas * std

    def density(x: np.ndarray) -> np.ndarray:
        z = (x - mean) / std
        return np.exp(-0.5 * z * z)

    return HistogramPDF.from_density(density, lo, hi, bins=bins)


def quantization_error_histogram(
    fractional_bits: int,
    mode: str = "round",
    bins: int = 16,
) -> HistogramPDF:
    """Quantization-error density for a format with ``fractional_bits``.

    ``mode="round"`` (round-to-nearest) yields a zero-mean uniform density
    over ``[-q/2, +q/2]``; ``mode="truncate"`` (two's-complement value
    truncation) yields a uniform density over ``[-q, 0]`` with mean
    ``-q/2``, where ``q = 2**-fractional_bits`` is the quantization step.
    These are the classical error models of Oppenheim & Schafer (the
    paper's reference [15]) expressed as histograms so they can be mixed
    freely with measured PDFs.
    """
    step = ulp(int(fractional_bits))
    mode = mode.lower()
    if mode in ("round", "rounding", "round-to-nearest", "nearest"):
        return HistogramPDF.uniform(-0.5 * step, 0.5 * step, bins=bins)
    if mode in ("truncate", "truncation", "floor", "chop"):
        return HistogramPDF.uniform(-step, 0.0, bins=bins)
    raise HistogramError(f"unknown quantization mode {mode!r}")
