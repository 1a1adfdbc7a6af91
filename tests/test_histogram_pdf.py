"""Histogram PDFs: constructor validation and point-mass statistics."""

import numpy as np
import pytest

from repro.errors import HistogramError
from repro.histogram.pdf import HistogramPDF


class TestDegenerateBins:
    """Point histograms keep finite statistics."""

    def test_point_statistics(self):
        pdf = HistogramPDF.point(2.5)
        assert pdf.mean() == pytest.approx(2.5)


class TestConstructorValidation:
    """Malformed edges and bin counts raise instead of yielding NaN histograms."""

    @pytest.mark.parametrize(
        "lo, hi", [(float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 0.0)]
    )
    def test_uniform_rejects_non_finite_bounds(self, lo, hi):
        with np.errstate(invalid="ignore"), pytest.raises(HistogramError, match="must be finite"):
            HistogramPDF.uniform(lo, hi)

    def test_constructor_rejects_nan_edges(self):
        with pytest.raises(HistogramError, match="edges must be finite, got nan"):
            HistogramPDF([0.0, float("nan"), 1.0], [0.5, 0.5])

    def test_point_rejects_a_non_finite_value(self):
        with pytest.raises(HistogramError, match="edges must be finite"):
            HistogramPDF.point(float("inf"))

    @pytest.mark.parametrize("bins", [0, -3])
    def test_uniform_rejects_fewer_than_one_bin(self, bins):
        with pytest.raises(HistogramError, match=f"bins must be >= 1, got {bins}"):
            HistogramPDF.uniform(0.0, 1.0, bins=bins)


class TestMoments:
    def test_uniform_moments(self):
        pdf = HistogramPDF.uniform(-1.0, 1.0, bins=32)
        assert pdf.mean() == pytest.approx(0.0, abs=1e-12)
