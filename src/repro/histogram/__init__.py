"""Histogram (discretized PDF) arithmetic.

The paper represents a distribution as a histogram and defines the sum
of independent distributions by taking the Cartesian product of operand
bins, adding each pair with interval arithmetic, and spreading the
product probability over the output bins (the "Histogram Method" of
Berleant, reference [17]).  This package keeps what the repository
reads distributions with: :class:`HistogramPDF`, the sum kernel that
PNA's reported error PDF is convolved with, and Monte-Carlo sampling.
"""

from repro.histogram.arithmetic import combine_histograms
from repro.histogram.pdf import HistogramPDF
from repro.histogram.sampling import sample_histogram

__all__ = [
    "HistogramPDF",
    "combine_histograms",
    "sample_histogram",
]
