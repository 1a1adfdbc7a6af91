"""Histogram (discretized PDF) arithmetic — the numerical core of SNA.

The paper represents every noise symbol's probability density function as
a histogram over ``[-1, +1]`` and defines operator semantics by taking
the Cartesian product of operand bins, applying interval arithmetic to
each pair, and spreading the product probability over the output bins
(the "Histogram Method" of Berleant, reference [17]).  This package
implements that arithmetic, the common PDF shapes used by quantization
error models, moment/bound statistics and Monte-Carlo sampling.
"""

from repro.histogram.arithmetic import combine_histograms, spread_intervals
from repro.histogram.pdf import HistogramPDF
from repro.histogram.shapes import (
    gaussian_histogram,
    quantization_error_histogram,
)
from repro.histogram.statistics import HistogramStats, summarize
from repro.histogram.sampling import empirical_histogram, sample_histogram

__all__ = [
    "HistogramPDF",
    "HistogramStats",
    "summarize",
    "combine_histograms",
    "spread_intervals",
    "gaussian_histogram",
    "quantization_error_histogram",
    "sample_histogram",
    "empirical_histogram",
]
