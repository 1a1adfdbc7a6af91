"""Histogram (discretized PDF) arithmetic.

The paper represents a distribution as a histogram and defines the sum
of independent distributions by taking the Cartesian product of operand
bins, adding each pair with interval arithmetic, and spreading the
product probability over the output bins (the "Histogram Method" of
Berleant, reference [17]).  No analysis builds a histogram: ``pna``
reads its error distribution in closed form, and the validators draw
their stimulus uniformly over the declared input ranges.  This package
keeps :class:`HistogramPDF` and its sum kernel only for the standalone
:func:`~repro.analysis.probabilistic.affine_error_pdf`.
"""

from repro.histogram.arithmetic import combine_histograms
from repro.histogram.pdf import HistogramPDF

__all__ = [
    "HistogramPDF",
    "combine_histograms",
]
