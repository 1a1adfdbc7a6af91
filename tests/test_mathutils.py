"""Integer-bit sizing: the representable range must cover the request."""

import pytest

from repro.fixedpoint.format import FixedPointFormat
from repro.utils.mathutils import integer_bits_for_range, ulp


class TestIntegerBitsForRange:
    @pytest.mark.parametrize(
        "lo,hi,expected",
        [
            (0.0, 0.0, 1),
            (0.0, 0.5, 1),
            (-1.0, 0.5, 1),
            (0.0, 1.0, 2),  # +1.0 is NOT representable with one signed bit
            (-1.0, 1.0, 2),
            (-2.0, 0.0, 2),
            (-2.0, 1.9, 2),
            (0.0, 2.0, 3),  # the off-by-one the seed had: 2 bits saturate at 2.0
            (-4.0, 3.0, 3),  # [-4, 4) fits exactly: lo may sit on the boundary
            (-4.0, 4.0, 4),
        ],
    )
    def test_signed(self, lo, hi, expected):
        assert integer_bits_for_range(lo, hi) == expected

    @pytest.mark.parametrize(
        "hi,expected",
        [(0.0, 1), (1.0, 1), (1.9, 1), (2.0, 2), (3.5, 2), (4.0, 3)],
    )
    def test_unsigned(self, hi, expected):
        assert integer_bits_for_range(0.0, hi, signed=False) == expected

    def test_unsigned_rejects_negative(self):
        with pytest.raises(ValueError):
            integer_bits_for_range(-0.5, 1.0, signed=False)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            integer_bits_for_range(1.0, 0.0)

    @pytest.mark.parametrize("hi", [0.5, 1.0, 2.0, 3.7, 8.0, 100.0])
    def test_resulting_format_covers_range(self, hi):
        """The whole point of the fix: the declared top must be representable."""
        bits = integer_bits_for_range(-hi, hi)
        fmt = FixedPointFormat(integer_bits=bits, fractional_bits=8)
        assert fmt.min_value <= -hi
        assert fmt.max_value >= hi

    def test_minimality(self):
        """One fewer bit must NOT cover the range (no over-allocation)."""
        for hi in (0.5, 1.0, 2.0, 3.7, 8.0):
            bits = integer_bits_for_range(-hi, hi)
            if bits > 1:
                smaller = FixedPointFormat(integer_bits=bits - 1, fractional_bits=8)
                assert smaller.max_value < hi or smaller.min_value > -hi


class TestSmallHelpers:
    def test_ulp(self):
        assert ulp(4) == 2.0**-4
        assert ulp(-1) == 2.0
