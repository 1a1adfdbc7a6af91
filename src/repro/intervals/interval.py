"""Classical interval arithmetic (IA).

An :class:`Interval` is a closed, bounded, non-empty interval of real
numbers ``[lo, hi]``.  Interval arithmetic is the simplest of the range
propagation methods reviewed in Section 3 of the paper: every value is
replaced by the range it can take, operations return a range guaranteed
to contain all possible results, and any dependency between operands is
ignored (which is exactly why the quadratic example of Table 1 is
overestimated by IA and AA but not by SNA).

The implementation is deliberately dependency-free and immutable so it
can be used both as a user-facing baseline analysis and as the inner
kernel of the histogram / Cartesian propagation machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from repro.errors import (
    DivisionByZeroIntervalError,
    DomainError,
    EmptyIntervalError,
    IntervalError,
)

__all__ = ["Interval", "RangeLike", "coerce_interval", "uniform_power"]

Number = Union[int, float]

#: Anything the user-facing APIs accept as a range: an Interval or a
#: ``(lo, hi)`` pair.
RangeLike = Union["Interval", tuple[float, float], Sequence[float]]


def _as_interval(value: "Interval | Number") -> "Interval":
    if isinstance(value, Interval):
        return value
    if isinstance(value, (int, float)):
        return Interval.point(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as an Interval")


def coerce_interval(value: RangeLike) -> "Interval":
    """Coerce an ``Interval`` or a ``(lo, hi)`` pair into an ``Interval``."""
    if isinstance(value, Interval):
        return value
    lo, hi = value
    return Interval(float(lo), float(hi))


def uniform_power(interval: "Interval") -> float:
    """``E[x^2]`` of a value uniform over ``interval``.

    The signal-power proxy shared by the analysis pipeline and the
    word-length optimizer, so both always judge SNR against the same
    denominator.
    """
    lo, hi = interval.lo, interval.hi
    return (lo * lo + lo * hi + hi * hi) / 3.0


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval ``[lo, hi]`` with ``lo <= hi``.

    Instances are immutable; all operators return new intervals.  Mixing
    with plain numbers is supported on both sides (``2 * iv``, ``iv + 1``).
    """

    lo: float
    hi: float

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise IntervalError(f"interval bounds must not be NaN: [{lo}, {hi}]")
        if lo > hi:
            raise IntervalError(f"invalid interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _fast(cls, lo: float, hi: float) -> "Interval":
        """Unvalidated constructor for hot arithmetic paths.

        Only for call sites that guarantee ``lo <= hi`` with float (not
        NaN) operands by construction — the dataclass ``__init__`` plus
        ``__post_init__`` validation costs more than the interval
        arithmetic itself on the analyzer's propagation loop.
        """
        interval = object.__new__(cls)
        object.__setattr__(interval, "lo", lo)
        object.__setattr__(interval, "hi", hi)
        return interval

    @classmethod
    def point(cls, value: Number) -> "Interval":
        """The degenerate interval ``[value, value]``."""
        return cls(float(value), float(value))

    @classmethod
    def hull_of(cls, intervals: Iterable["Interval | Number"]) -> "Interval":
        """Smallest interval containing every interval/number in ``intervals``."""
        items = [_as_interval(iv) for iv in intervals]
        if not items:
            raise EmptyIntervalError("hull_of requires at least one interval")
        return cls(min(iv.lo for iv in items), max(iv.hi for iv in items))

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> float:
        """The diameter ``hi - lo``."""
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        """The centre ``(lo + hi) / 2``."""
        return 0.5 * (self.lo + self.hi)

    @property
    def radius(self) -> float:
        """Half the width."""
        return 0.5 * (self.hi - self.lo)

    @property
    def magnitude(self) -> float:
        """``max(|lo|, |hi|)`` — the largest absolute value in the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mignitude(self) -> float:
        """The smallest absolute value contained in the interval."""
        if self.contains(0.0):
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def is_point(self, tol: float = 0.0) -> bool:
        """True when the interval is (numerically) a single point."""
        return self.width <= tol

    def contains(self, value: "Interval | Number", tol: float = 0.0) -> bool:
        """True when ``value`` (number or interval) lies inside ``self``."""
        other = _as_interval(value)
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    def clamp(self, value: Number) -> float:
        """Clamp ``value`` into the interval."""
        return min(max(float(value), self.lo), self.hi)

    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval({self.lo:g}, {self.hi:g})"

    # ------------------------------------------------------------------ #
    # set operations
    # ------------------------------------------------------------------ #
    def hull(self, other: "Interval | Number") -> "Interval":
        """Smallest interval containing both operands."""
        other = _as_interval(other)
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval | Number") -> "Interval":
        """Intersection of the two intervals; raises if they are disjoint."""
        other = _as_interval(other)
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise EmptyIntervalError(f"{self} and {other} do not intersect")
        return Interval(lo, hi)

    def split(self, pieces: int) -> list["Interval"]:
        """Partition the interval into ``pieces`` equal-width sub-intervals."""
        if pieces <= 0:
            raise IntervalError(f"pieces must be positive, got {pieces}")
        step = self.width / pieces
        if step == 0.0:
            return [Interval(self.lo, self.hi) for _ in range(pieces)]
        edges = [self.lo + i * step for i in range(pieces)] + [self.hi]
        return [Interval(edges[i], edges[i + 1]) for i in range(pieces)]

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __neg__(self) -> "Interval":
        return Interval._fast(-self.hi, -self.lo)

    def __add__(self, other: "Interval | Number") -> "Interval":
        other = _as_interval(other)
        return Interval._fast(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other: "Interval | Number") -> "Interval":
        other = _as_interval(other)
        return Interval._fast(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other: "Interval | Number") -> "Interval":
        return _as_interval(other) - self

    def __mul__(self, other: "Interval | Number") -> "Interval":
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval._fast(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        """``1 / self``; the interval must not contain zero."""
        if self.contains(0.0):
            raise DivisionByZeroIntervalError(f"cannot invert {self}: contains zero")
        return Interval(1.0 / self.hi, 1.0 / self.lo)

    def __truediv__(self, other: "Interval | Number") -> "Interval":
        other = _as_interval(other)
        return self * other.reciprocal()

    def __rtruediv__(self, other: "Interval | Number") -> "Interval":
        return _as_interval(other) * self.reciprocal()

    def __pow__(self, exponent: int) -> "Interval":
        """Integer power, using the dependent (exact) image of the interval.

        Unlike ``x * x``, ``x ** 2`` of an interval straddling zero has a
        lower bound of zero — the classic IA "dependency" refinement for
        even powers.  This mirrors how the paper computes ``x**2`` in the
        quadratic example so that plain IA yields ``[0, 23]`` rather than
        ``[-10, 23]``.
        """
        if not isinstance(exponent, int):
            raise IntervalError(f"only integer powers are supported, got {exponent!r}")
        if exponent < 0:
            return (self ** (-exponent)).reciprocal()
        if exponent == 0:
            return Interval.point(1.0)
        if exponent == 1:
            return Interval(self.lo, self.hi)
        lo_p = self.lo ** exponent
        hi_p = self.hi ** exponent
        if exponent % 2 == 1:
            return Interval(lo_p, hi_p)
        if self.contains(0.0):
            return Interval(0.0, max(lo_p, hi_p))
        return Interval(min(lo_p, hi_p), max(lo_p, hi_p))

    def square(self) -> "Interval":
        """Exact image of ``x ** 2`` (dependency-aware, unlike ``self * self``)."""
        return self ** 2

    def __abs__(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo, self.hi)
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, self.magnitude)

    def sqrt(self) -> "Interval":
        """Square root; the interval must be non-negative.

        An interval crossing the domain boundary raises a
        :class:`~repro.errors.DomainError` rather than letting NaN leak
        into downstream enclosures.
        """
        if self.lo < 0:
            raise DomainError(f"sqrt requires a non-negative interval, got {self}")
        return Interval(math.sqrt(self.lo), math.sqrt(self.hi))

    def exp(self) -> "Interval":
        """Exponential (monotone, hence exact)."""
        return Interval(math.exp(self.lo), math.exp(self.hi))

    def log(self) -> "Interval":
        """Natural logarithm; the interval must be strictly positive.

        An interval crossing the domain boundary raises a
        :class:`~repro.errors.DomainError` rather than letting -inf/NaN
        leak into downstream enclosures.
        """
        if self.lo <= 0:
            raise DomainError(f"log requires a positive interval, got {self}")
        return Interval(math.log(self.lo), math.log(self.hi))

    def minimum(self, other: "Interval | Number") -> "Interval":
        """Exact image of elementwise ``min(x, y)`` over the two intervals."""
        other = _as_interval(other)
        return Interval._fast(min(self.lo, other.lo), min(self.hi, other.hi))

    def maximum(self, other: "Interval | Number") -> "Interval":
        """Exact image of elementwise ``max(x, y)`` over the two intervals."""
        other = _as_interval(other)
        return Interval._fast(max(self.lo, other.lo), max(self.hi, other.hi))

    def scale(self, factor: Number) -> "Interval":
        """Multiply by a scalar (slightly cheaper than building an interval)."""
        factor = float(factor)
        if factor >= 0:
            return Interval._fast(self.lo * factor, self.hi * factor)
        return Interval._fast(self.hi * factor, self.lo * factor)

    def shift(self, offset: Number) -> "Interval":
        """Add a scalar offset."""
        offset = float(offset)
        return Interval._fast(self.lo + offset, self.hi + offset)

    # ------------------------------------------------------------------ #
    # comparisons and sampling
    # ------------------------------------------------------------------ #
    def almost_equal(self, other: "Interval | Number", tol: float = 1e-12) -> bool:
        """True when both endpoints match within ``tol``."""
        other = _as_interval(other)
        return abs(self.lo - other.lo) <= tol and abs(self.hi - other.hi) <= tol

    def linspace(self, count: int) -> list[float]:
        """``count`` evenly spaced sample points covering the interval."""
        if count <= 0:
            raise IntervalError(f"count must be positive, got {count}")
        if count == 1:
            return [self.midpoint]
        step = self.width / (count - 1)
        return [self.lo + i * step for i in range(count)]

    @staticmethod
    def evaluate_polynomial(coefficients: Sequence[Number], x: "Interval") -> "Interval":
        """Evaluate ``sum(c_k * x**k)`` with Horner's scheme in IA.

        ``coefficients`` are ordered from degree 0 upwards.  Horner's form
        keeps each occurrence of ``x`` tied to the same interval but still
        suffers the classic IA dependency blow-up; it is provided as a
        convenience for the baselines and for tests.
        """
        if not coefficients:
            return Interval.point(0.0)
        result = Interval.point(float(coefficients[-1]))
        for coeff in reversed(list(coefficients)[:-1]):
            result = result * x + float(coeff)
        return result
