"""Numeric helpers shared by the fixed-point, range-analysis and optimization layers."""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "ulp",
    "integer_bits_for_range",
    "summed",
]


def summed(values: Iterable[float]) -> float:
    """Left-to-right float sum ``((0.0 + v1) + v2) + ...``.

    Every float reduction whose result must not depend on the Python
    version goes through this loop: from Python 3.12 on, builtin ``sum``
    compensates float rounding and disagrees with it in the last ulp.
    On earlier versions the two are bit-identical.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def ulp(fractional_bits: int) -> float:
    """Return the weight of the least significant bit, ``2 ** -f``.

    The unit-in-the-last-place of a fixed-point format with ``f``
    fractional bits.  ``f`` may be negative (the LSB then weighs more than
    one).
    """
    return 2.0 ** (-fractional_bits)


def integer_bits_for_range(lo: float, hi: float, signed: bool = True) -> int:
    """Number of integer bits needed to represent all values in ``[lo, hi]``.

    For a signed two's-complement format with ``i`` integer bits (sign bit
    included) the representable integer range is ``[-2**(i-1), 2**(i-1))``.
    For an unsigned format it is ``[0, 2**i)``.  The returned count is the
    smallest ``i`` whose range covers ``[lo, hi]``; a degenerate range
    around zero still needs one bit (the sign bit for signed formats).

    The upper end of both ranges is *exclusive*: the two's-complement
    maximum is ``2**(i-1) - 2**-f`` (strictly below ``2**(i-1)``), so a
    range whose top sits exactly on the power-of-two boundary needs one
    more bit — ``integer_bits_for_range(0.0, 2.0)`` is 3, not 2.
    """
    if lo > hi:
        raise ValueError(f"invalid range: lo={lo} > hi={hi}")
    if not signed and lo < 0:
        raise ValueError("unsigned format cannot represent negative values")
    lo = float(lo)
    hi = float(hi)
    if lo == 0.0 and hi == 0.0:
        return 1
    if signed:
        # i integer bits (sign included) cover [-2**(i-1), 2**(i-1)).
        bits = 1
        while hi >= 2.0 ** (bits - 1) or lo < -(2.0 ** (bits - 1)):
            bits += 1
        return bits
    # i unsigned integer bits cover [0, 2**i).
    bits = 1
    while hi >= 2.0 ** bits:
        bits += 1
    return bits

