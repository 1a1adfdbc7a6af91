"""Small shared utilities used across the :mod:`repro` package."""

from repro.utils.mathutils import integer_bits_for_range, summed, ulp

__all__ = [
    "integer_bits_for_range",
    "summed",
    "ulp",
]
