"""Histogram PDFs: degenerate-bin guards and cdf/quantile round-trips."""

import numpy as np
import pytest

from repro.errors import HistogramError
from repro.histogram.pdf import HistogramPDF
from repro.histogram.shapes import gaussian_histogram
from repro.intervals.interval import Interval


class TestDegenerateBins:
    """Point histograms must not produce NaN/inf in density-based queries."""

    @pytest.mark.parametrize("value", [0.0, 3.0, -7.25, 1e6, 1e-9])
    def test_point_density_is_finite(self, value):
        pdf = HistogramPDF.point(value)
        assert np.all(np.isfinite(pdf.density()))

    def test_point_probability_of(self):
        pdf = HistogramPDF.point(3.0)
        assert pdf.probability_of(Interval(2.0, 4.0)) == 1.0
        assert pdf.probability_of(Interval(4.0, 5.0)) == 0.0
        assert pdf.probability_of(Interval(-10.0, 10.0)) == 1.0

    def test_point_entropy_is_finite(self):
        assert np.isfinite(HistogramPDF.point(0.0).entropy())

    def test_tiny_scaled_point_stays_finite(self):
        pdf = HistogramPDF.point(1.0).scale(1e-300)
        assert np.all(np.isfinite(pdf.density()))
        assert np.isfinite(pdf.entropy())

    def test_mixed_histogram_guards_only_degenerate_bins(self):
        uniform = HistogramPDF.uniform(-1.0, 1.0, bins=8)
        assert np.all(uniform.density() > 0)
        assert uniform.probability_of(Interval(0.0, 0.5)) == pytest.approx(0.25)
        assert uniform.entropy() == pytest.approx(np.log(2.0))

    def test_point_statistics(self):
        pdf = HistogramPDF.point(2.5)
        assert pdf.mean() == pytest.approx(2.5)
        assert pdf.variance() == pytest.approx(0.0, abs=1e-20)


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

    def test_copy_is_independent(self):
        pdf = HistogramPDF.uniform(-1.0, 1.0, bins=4)
        twin = pdf.copy()
        twin.probs[0] = 0.0
        twin.edges[0] = -2.0
        assert pdf.probs[0] == 0.25 and pdf.edges[0] == -1.0


class TestCdfQuantileRoundTrip:
    @pytest.mark.parametrize(
        "pdf",
        [
            HistogramPDF.uniform(-1.0, 1.0, bins=16),
            HistogramPDF.uniform(2.0, 7.0, bins=9),
            gaussian_histogram(0.0, 1.0, bins=64),
        ],
        ids=["uniform", "offset-uniform", "gaussian"],
    )
    def test_quantile_of_cdf(self, pdf):
        for x in np.linspace(pdf.support.lo, pdf.support.hi, 23)[1:-1]:
            q = pdf.cdf(x)
            assert pdf.quantile(q) == pytest.approx(float(x), abs=1e-9)

    @pytest.mark.parametrize(
        "pdf",
        [HistogramPDF.uniform(-1.0, 1.0, bins=16), gaussian_histogram(1.0, 0.5, bins=32)],
        ids=["uniform", "gaussian"],
    )
    def test_cdf_of_quantile(self, pdf):
        for q in np.linspace(0.01, 0.99, 21):
            x = pdf.quantile(float(q))
            assert pdf.cdf(x) == pytest.approx(float(q), abs=1e-9)

    def test_cdf_extremes(self):
        pdf = HistogramPDF.uniform(0.0, 1.0, bins=4)
        assert pdf.cdf(-1.0) == 0.0
        assert pdf.cdf(2.0) == 1.0
        assert pdf.quantile(0.0) == pytest.approx(0.0)
        assert pdf.quantile(1.0) == pytest.approx(1.0)

    def test_median_of_uniform(self):
        pdf = HistogramPDF.uniform(2.0, 4.0, bins=10)
        assert pdf.quantile(0.5) == pytest.approx(3.0)


class TestMoments:
    def test_uniform_moments(self):
        pdf = HistogramPDF.uniform(-1.0, 1.0, bins=32)
        assert pdf.mean() == pytest.approx(0.0, abs=1e-12)
        assert pdf.variance() == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert pdf.mean_square() == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_square_is_dependency_aware(self):
        pdf = HistogramPDF.uniform(-1.0, 1.0, bins=64)
        squared = pdf.square()
        assert squared.support.lo >= -1e-12
        assert squared.mean() == pytest.approx(1.0 / 3.0, rel=0.05)
