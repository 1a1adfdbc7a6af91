"""Histogram (discretized PDF) arithmetic.

The paper represents a distribution as a histogram and defines the sum
of independent distributions by taking the Cartesian product of operand
bins, adding each pair with interval arithmetic, and spreading the
product probability over the output bins (the "Histogram Method" of
Berleant, reference [17]).  No analysis builds a histogram: ``pna``
reads its error distribution in closed form.  This package keeps
:class:`HistogramPDF` for the input PDFs the Monte-Carlo validator and
the oracle sample, the sum kernel behind
:func:`~repro.analysis.probabilistic.affine_error_pdf`, and that
sampling.
"""

from repro.histogram.arithmetic import combine_histograms
from repro.histogram.pdf import HistogramPDF
from repro.histogram.sampling import sample_histogram

__all__ = [
    "HistogramPDF",
    "combine_histograms",
    "sample_histogram",
]
