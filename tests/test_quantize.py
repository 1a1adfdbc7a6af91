"""Quantization kernels: rounding convention, truncation, overflow."""

import math
import struct

import numpy as np
import pytest

from repro.fixedpoint.format import FixedPointFormat
from repro.fixedpoint.quantize import (
    overflow_wrap,
    quantization_error_bounds,
    quantize,
    quantize_array,
)

INT4 = FixedPointFormat(integer_bits=4, fractional_bits=0)
Q2_4 = FixedPointFormat(integer_bits=2, fractional_bits=4)


class TestRoundHalfAwayFromZero:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (2.5, 3.0),
            (-2.5, -3.0),
            (0.5, 1.0),
            (-0.5, -1.0),
            (1.5, 2.0),
            (-1.5, -2.0),
            (-2.4, -2.0),
            (2.4, 2.0),
            (0.0, 0.0),
        ],
    )
    def test_halfway_values(self, value, expected):
        assert quantize(value, INT4) == expected

    def test_fractional_grid(self):
        step = Q2_4.step
        assert quantize(1.5 * step, Q2_4) == 2 * step
        assert quantize(-1.5 * step, Q2_4) == -2 * step

    def test_array_matches_scalar(self):
        values = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 0.3, -0.3])
        expected = np.array([quantize(v, INT4) for v in values])
        np.testing.assert_allclose(quantize_array(values, INT4), expected)

    def test_round_error_within_half_step(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1.9, 1.9, size=10_000)
        quantized = quantize_array(values, Q2_4)
        errors = quantized - values
        assert np.all(np.abs(errors) <= 0.5 * Q2_4.step + 1e-15)


class TestTruncate:
    def test_truncates_toward_minus_infinity(self):
        assert quantize(-2.3, INT4, quantization="truncate") == -3.0
        assert quantize(2.7, INT4, quantization="truncate") == 2.0

    def test_truncate_error_bounds(self):
        bounds = quantization_error_bounds(Q2_4, "truncate")
        assert bounds.lo == -Q2_4.step
        assert bounds.hi == 0.0

    def test_round_error_bounds(self):
        bounds = quantization_error_bounds(Q2_4, "round")
        assert bounds.lo == -0.5 * Q2_4.step
        assert bounds.hi == 0.5 * Q2_4.step


class TestOverflow:
    def test_saturate_clamps(self):
        assert quantize(100.0, INT4) == INT4.max_value
        assert quantize(-100.0, INT4) == INT4.min_value

    def test_wrap_is_modular(self):
        assert overflow_wrap(INT4.max_value + 1.0, INT4) == INT4.min_value
        wrapped = quantize(INT4.max_value + 1.0, INT4, overflow="wrap")
        assert wrapped == INT4.min_value


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


#: Formats of both signs and sizes, including Q1.0 (max_value 0.0) and
#: unsigned formats (min_value 0.0), where a zero ties with a range bound.
SCALAR_FORMATS = [
    FixedPointFormat(1, 0),
    FixedPointFormat(1, 3),
    FixedPointFormat(4, 0),
    FixedPointFormat(2, 4),
    FixedPointFormat(3, 12),
    FixedPointFormat(6, 40),
    FixedPointFormat(0, 5, signed=False),
    FixedPointFormat(1, 0, signed=False),
    FixedPointFormat(3, 8, signed=False),
]


def _edge_values(fmt: FixedPointFormat) -> list[float]:
    step = fmt.step
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300]
    values += [fmt.min_value, fmt.max_value, -fmt.max_value, fmt.max_value + step]
    values += [fmt.min_value - step, fmt.max_value + 0.5 * step, fmt.min_value - 0.5 * step]
    for k in (0, 1, 2, 5, -1, -2, -5):
        values += [(k + 0.5) * step, (k - 0.5) * step]
    values += [0.3 * step, -0.3 * step, 0.7 * step, -0.7 * step]
    return values


class TestScalarMatchesArray:
    """Scalar ``quantize`` returns ``quantize_array``'s value bit for bit."""

    @pytest.mark.parametrize("quantization", ["round", "truncate"])
    @pytest.mark.parametrize("fmt", SCALAR_FORMATS, ids=lambda fmt: fmt.describe())
    def test_grid_and_edges(self, fmt, quantization):
        rng = np.random.default_rng(20)
        span = max(abs(fmt.min_value), fmt.max_value) * 1.25 + 1.0
        values = list(rng.uniform(-span, span, size=400))
        values += list(rng.normal(0.0, fmt.step * 4, size=200))
        values += _edge_values(fmt)
        with np.errstate(over="ignore"):  # +-1e300 / step overflows in fine formats
            expected = quantize_array(np.asarray(values), fmt, quantization)
            for value, reference in zip(values, expected):
                result = quantize(value, fmt, quantization)
                assert type(result) is float
                assert _bits(result) == _bits(float(reference)), (value, result, reference)

    def test_signed_zeros(self):
        """``-0.0`` keeps its sign wherever the array path keeps it."""
        signs = set()
        for fmt in SCALAR_FORMATS:
            for quantization in ("round", "truncate"):
                for value in (0.0, -0.0, -0.3 * fmt.step, 0.3 * fmt.step):
                    result = quantize(value, fmt, quantization)
                    reference = quantize_array(np.asarray([value]), fmt, quantization)[0]
                    assert _bits(result) == _bits(float(reference))
                    if result == 0.0:
                        signs.add(math.copysign(1.0, result))
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("quantization", ["round", "truncate"])
    @pytest.mark.parametrize("fmt", SCALAR_FORMATS, ids=lambda fmt: fmt.describe())
    def test_wrap_and_non_finite_take_the_array_path(self, fmt, quantization):
        values = [math.inf, -math.inf, math.nan, 1e300, -1e300, fmt.max_value + 3 * fmt.step]
        values += _edge_values(fmt)
        with np.errstate(all="ignore"):
            for overflow in ("wrap", "saturate"):
                expected = quantize_array(np.asarray(values), fmt, quantization, overflow)
                for value, reference in zip(values, expected):
                    result = quantize(value, fmt, quantization, overflow)
                    assert _bits(result) == _bits(float(reference)), (value, overflow)
