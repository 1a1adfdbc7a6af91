"""Fixed-point formats: word-length split, quantization and overflow modes."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import FixedPointError
from repro.intervals.interval import Interval

__all__ = ["QuantizationMode", "OverflowMode", "FixedPointFormat"]


class QuantizationMode(str, enum.Enum):
    """How the LSBs below the fractional precision are removed.

    ``ROUND`` is round-to-nearest (error in ``[-q/2, +q/2]``); ``TRUNCATE``
    is two's-complement value truncation toward minus infinity (error in
    ``[-q, 0]``), with ``q = 2**-fractional_bits``.
    """

    ROUND = "round"
    TRUNCATE = "truncate"

    @classmethod
    def coerce(cls, value: "QuantizationMode | str") -> "QuantizationMode":
        """Accept either an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            raise FixedPointError(f"unknown quantization mode {value!r}") from exc


class OverflowMode(str, enum.Enum):
    """How values outside the representable range are handled.

    ``SATURATE`` clamps to the closest representable extreme; ``WRAP``
    performs two's-complement modular wrap-around.
    """

    SATURATE = "saturate"
    WRAP = "wrap"

    @classmethod
    def coerce(cls, value: "OverflowMode | str") -> "OverflowMode":
        """Accept either an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            raise FixedPointError(f"unknown overflow mode {value!r}") from exc


@dataclass(frozen=True)
class FixedPointFormat:
    """A two's-complement fixed-point format.

    Attributes
    ----------
    integer_bits:
        Number of integer bits.  For signed formats this count *includes*
        the sign bit, so ``integer_bits=1`` covers ``[-1, 1)``.
    fractional_bits:
        Number of fractional bits; the quantization step is
        ``2**-fractional_bits``.  May be zero (integer format).
    signed:
        Whether the format is two's-complement signed (the default) or
        unsigned.
    """

    integer_bits: int
    fractional_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fractional_bits < 0:
            raise FixedPointError(
                f"bit counts must be non-negative, got Q{self.integer_bits}.{self.fractional_bits}"
            )
        if self.integer_bits == 0 and self.fractional_bits == 0:
            raise FixedPointError("a format needs at least one bit")
        if self.signed and self.integer_bits == 0:
            raise FixedPointError("a signed format needs at least one integer (sign) bit")

    # ------------------------------------------------------------------ #
    @property
    def word_length(self) -> int:
        """Total number of bits."""
        return self.integer_bits + self.fractional_bits

    @property
    def step(self) -> float:
        """Quantization step (weight of the LSB), ``2**-fractional_bits``."""
        return 2.0 ** (-self.fractional_bits)

    @property
    def min_value(self) -> float:
        """Most negative representable value."""
        if self.signed:
            return -(2.0 ** (self.integer_bits - 1))
        return 0.0

    @property
    def max_value(self) -> float:
        """Most positive representable value."""
        if self.signed:
            return 2.0 ** (self.integer_bits - 1) - self.step
        return 2.0 ** self.integer_bits - self.step

    @property
    def range(self) -> Interval:
        """The representable range as an :class:`Interval`."""
        return Interval(self.min_value, self.max_value)

    @property
    def modulus(self) -> float:
        """Span used by wrap-around overflow (``2**integer_bits`` for signed)."""
        if self.signed:
            return 2.0 ** self.integer_bits
        return 2.0 ** self.integer_bits

    def representable(self, value: float, tol: float = 1e-12) -> bool:
        """True when ``value`` is exactly representable (grid and range)."""
        if not (self.min_value - tol <= value <= self.max_value + tol):
            return False
        scaled = value / self.step
        return abs(scaled - round(scaled)) <= tol * max(1.0, abs(scaled))

    def describe(self) -> str:
        """Human-readable ``Q`` notation (e.g. ``sQ4.12``)."""
        prefix = "sQ" if self.signed else "uQ"
        return f"{prefix}{self.integer_bits}.{self.fractional_bits}"

    # ------------------------------------------------------------------ #
    def with_fractional_bits(self, fractional_bits: int) -> "FixedPointFormat":
        """Copy of this format with a different fractional precision."""
        return FixedPointFormat(self.integer_bits, fractional_bits, self.signed)

    def with_integer_bits(self, integer_bits: int) -> "FixedPointFormat":
        """Copy of this format with a different integer width."""
        return FixedPointFormat(integer_bits, self.fractional_bits, self.signed)
