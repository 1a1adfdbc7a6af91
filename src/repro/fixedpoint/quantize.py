"""Quantization and overflow handling for scalar values and numpy arrays."""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.errors import FixedPointError
from repro.fixedpoint.format import FixedPointFormat, OverflowMode, QuantizationMode
from repro.intervals.interval import Interval

__all__ = [
    "quantize",
    "quantize_array",
    "quantization_error_bounds",
    "overflow_wrap",
]

Number = Union[int, float]


def _apply_precision(scaled: np.ndarray, mode: QuantizationMode) -> np.ndarray:
    if mode is QuantizationMode.ROUND:
        # round-half-away-from-zero, the usual DSP hardware convention.
        # np.floor(x + 0.5) would be round-half-toward-+inf and send -2.5
        # to -2 instead of -3, so round the magnitude and restore the sign.
        return np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    if mode is QuantizationMode.TRUNCATE:
        return np.floor(scaled)
    raise FixedPointError(f"unknown quantization mode {mode!r}")


def overflow_wrap(value: np.ndarray | float, fmt: FixedPointFormat) -> np.ndarray | float:
    """Two's-complement wrap-around of ``value`` into the format's range."""
    span = fmt.modulus
    shifted = np.asarray(value, dtype=float) - fmt.min_value
    wrapped = np.mod(shifted, span) + fmt.min_value
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(wrapped)
    return wrapped


def quantize_array(
    values: np.ndarray,
    fmt: FixedPointFormat,
    quantization: QuantizationMode | str = QuantizationMode.ROUND,
    overflow: OverflowMode | str = OverflowMode.SATURATE,
) -> np.ndarray:
    """Quantize an array of real values into the given fixed-point format."""
    quantization = QuantizationMode.coerce(quantization)
    overflow = OverflowMode.coerce(overflow)
    values = np.asarray(values, dtype=float)

    scaled = values / fmt.step
    quantized = _apply_precision(scaled, quantization) * fmt.step

    if overflow is OverflowMode.SATURATE:
        return np.clip(quantized, fmt.min_value, fmt.max_value)
    if overflow is OverflowMode.WRAP:
        return np.asarray(overflow_wrap(quantized, fmt), dtype=float)
    raise FixedPointError(f"unknown overflow mode {overflow!r}")


def quantize(
    value: Number,
    fmt: FixedPointFormat,
    quantization: QuantizationMode | str = QuantizationMode.ROUND,
    overflow: OverflowMode | str = OverflowMode.SATURATE,
) -> float:
    """Quantize a single real value into the given fixed-point format.

    Returns, bit for bit and signs of zeros included, what
    :func:`quantize_array` returns for ``[value]``, from the same float
    operations on Python floats.  ``WRAP``, a non-finite scaled value and
    a zero result on a zero range bound take the array path: the first
    two need its ``mod`` and ``floor`` semantics, and how ``np.clip``
    signs a zero tied with its bound has changed across NumPy releases.
    """
    quantization = QuantizationMode.coerce(quantization)
    overflow = OverflowMode.coerce(overflow)
    value = float(value)
    step = fmt.step
    scaled = value / step
    if overflow is OverflowMode.SATURATE and math.isfinite(scaled):
        if quantization is QuantizationMode.ROUND:
            quantized = math.copysign(math.floor(abs(scaled) + 0.5), scaled) * step
        else:
            # math.floor(-0.0) is the int 0; np.floor(-0.0) is -0.0.
            quantized = (math.floor(scaled) if scaled else scaled) * step
        lo, hi = fmt.min_value, fmt.max_value
        if quantized < lo:
            return lo
        if quantized > hi:
            return hi
        if quantized or (lo and hi):
            return quantized
    result = quantize_array(np.asarray([value]), fmt, quantization, overflow)
    return float(result[0])


def quantization_error_bounds(
    fmt: FixedPointFormat,
    quantization: QuantizationMode | str = QuantizationMode.ROUND,
) -> Interval:
    """Worst-case quantization error interval (overflow excluded).

    Round-to-nearest errors lie in ``[-q/2, +q/2]``; truncation errors lie
    in ``(-q, 0]`` (returned as the closed interval ``[-q, 0]``), where
    ``q`` is the quantization step of ``fmt``.
    """
    quantization = QuantizationMode.coerce(quantization)
    step = fmt.step
    if quantization is QuantizationMode.ROUND:
        return Interval(-0.5 * step, 0.5 * step)
    return Interval(-step, 0.0)
