"""A small degree-2 Taylor-model arithmetic.

A :class:`TaylorModel` encloses an uncertain quantity as a multivariate
polynomial of degree at most two in noise symbols ``eps_i in [-1, 1]``
plus an interval remainder that soundly bounds every discarded
higher-order term:

``x = c + sum_i a_i eps_i + sum_{i<=j} b_ij eps_i eps_j + R``.

It sits between affine arithmetic (degree 1) and full symbolic noise
analysis: quadratic dependencies such as ``x * x`` are represented
exactly, while cubic and higher interactions fall into the remainder.
The paper cites Taylor models (reference [10]) as one of the range
representations SNA generalizes; this implementation is used as an
additional baseline in the comparison benchmarks.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple, Union

from repro.errors import DivisionByZeroIntervalError, IntervalError
from repro.intervals.interval import Interval
from repro.intervals.linearize import (
    abs_linearization,
    exp_linearization,
    log_linearization,
    sqrt_linearization,
)
from repro.utils.mathutils import summed

__all__ = ["TaylorModel"]

Number = Union[int, float]
PairKey = Tuple[str, str]


def _pair_key(a: str, b: str) -> PairKey:
    return (a, b) if a <= b else (b, a)


class TaylorModel:
    """A degree-2 polynomial in ``[-1, 1]`` noise symbols with a remainder."""

    __slots__ = ("constant", "linear", "quadratic", "remainder")

    def __init__(
        self,
        constant: Number = 0.0,
        linear: Mapping[str, Number] | None = None,
        quadratic: Mapping[PairKey, Number] | None = None,
        remainder: Interval | None = None,
    ) -> None:
        self.constant = float(constant)
        self.linear: Dict[str, float] = {
            str(k): float(v) for k, v in (linear or {}).items() if float(v) != 0.0
        }
        self.quadratic: Dict[PairKey, float] = {}
        for key, value in (quadratic or {}).items():
            value = float(value)
            if value == 0.0:
                continue
            a, b = key
            key = _pair_key(str(a), str(b))
            self.quadratic[key] = self.quadratic.get(key, 0.0) + value
        self.remainder = remainder if remainder is not None else Interval.point(0.0)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant_model(cls, value: Number) -> "TaylorModel":
        """A model with no uncertainty at all."""
        return cls(constant=value)

    @classmethod
    def variable(cls, name: str, lo: Number, hi: Number) -> "TaylorModel":
        """A model for an input ranging over ``[lo, hi]``: ``mid + rad*eps``."""
        lo = float(lo)
        hi = float(hi)
        if lo > hi:
            raise IntervalError(f"invalid range for {name!r}: [{lo}, {hi}]")
        return cls(constant=0.5 * (lo + hi), linear={name: 0.5 * (hi - lo)})

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def symbols(self) -> frozenset[str]:
        """All noise symbols appearing in the polynomial part."""
        names = set(self.linear)
        for a, b in self.quadratic:
            names.add(a)
            names.add(b)
        return frozenset(names)

    def bound(self) -> Interval:
        """A sound interval enclosure of the model.

        Linear terms contribute ``+/- |a_i|``; diagonal quadratic terms
        ``b_ii * eps_i^2`` contribute ``[0, b_ii]`` (or ``[b_ii, 0]``);
        off-diagonal terms contribute ``+/- |b_ij|``; the remainder is
        added verbatim.  This keeps the ``x**2 >= 0`` information that
        plain AA loses.
        """
        result = Interval.point(self.constant)
        for coeff in self.linear.values():
            result = result + Interval(-abs(coeff), abs(coeff))
        for (a, b), coeff in self.quadratic.items():
            if a == b:
                result = result + Interval.point(coeff) * Interval(0.0, 1.0)
            else:
                result = result + Interval(-abs(coeff), abs(coeff))
        return result + self.remainder

    def evaluate(self, assignment: Mapping[str, Number]) -> Interval:
        """Evaluate for concrete noise-symbol values, keeping the remainder."""
        total = self.constant
        for name, coeff in self.linear.items():
            total += coeff * float(assignment.get(name, 0.0))
        for (a, b), coeff in self.quadratic.items():
            total += coeff * float(assignment.get(a, 0.0)) * float(assignment.get(b, 0.0))
        return self.remainder.shift(total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{self.constant:g}"]
        for name in sorted(self.linear):
            parts.append(f"{self.linear[name]:+g}*{name}")
        for (a, b) in sorted(self.quadratic):
            parts.append(f"{self.quadratic[(a, b)]:+g}*{a}*{b}")
        return f"TaylorModel({' '.join(parts)} + R{self.remainder})"

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other: "TaylorModel | Number") -> "TaylorModel":
        if isinstance(other, TaylorModel):
            return other
        if isinstance(other, (int, float)):
            return TaylorModel.constant_model(other)
        raise TypeError(f"cannot combine TaylorModel with {type(other).__name__}")

    def __neg__(self) -> "TaylorModel":
        return TaylorModel(
            -self.constant,
            {k: -v for k, v in self.linear.items()},
            {k: -v for k, v in self.quadratic.items()},
            -self.remainder,
        )

    def __add__(self, other: "TaylorModel | Number") -> "TaylorModel":
        other = self._coerce(other)
        linear = dict(self.linear)
        for name, coeff in other.linear.items():
            linear[name] = linear.get(name, 0.0) + coeff
        quadratic = dict(self.quadratic)
        for key, coeff in other.quadratic.items():
            quadratic[key] = quadratic.get(key, 0.0) + coeff
        return TaylorModel(
            self.constant + other.constant,
            linear,
            quadratic,
            self.remainder + other.remainder,
        )

    __radd__ = __add__

    def __sub__(self, other: "TaylorModel | Number") -> "TaylorModel":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "TaylorModel | Number") -> "TaylorModel":
        return self._coerce(other) - self

    def scale(self, factor: Number) -> "TaylorModel":
        """Multiply by an exact scalar."""
        factor = float(factor)
        return TaylorModel(
            self.constant * factor,
            {k: v * factor for k, v in self.linear.items()},
            {k: v * factor for k, v in self.quadratic.items()},
            self.remainder.scale(factor),
        )

    def is_exact_constant(self) -> bool:
        """True when the model is a bare constant (no symbols, no remainder)."""
        return (
            not self.linear
            and not self.quadratic
            and self.remainder.lo == 0.0
            and self.remainder.hi == 0.0
        )

    def __mul__(self, other: "TaylorModel | Number") -> "TaylorModel":
        if isinstance(other, (int, float)):
            return self.scale(other)
        other = self._coerce(other)
        # An exact-constant operand multiplies through term by term — the
        # same floats the general path produces, without the cross-term
        # and remainder bookkeeping.
        if other.is_exact_constant():
            return self.scale(other.constant)
        if self.is_exact_constant():
            return other.scale(self.constant)

        constant = self.constant * other.constant
        linear: Dict[str, float] = {}
        quadratic: Dict[PairKey, float] = {}
        remainder = Interval.point(0.0)

        # constant x polynomial cross terms
        for name, coeff in other.linear.items():
            linear[name] = linear.get(name, 0.0) + self.constant * coeff
        for name, coeff in self.linear.items():
            linear[name] = linear.get(name, 0.0) + other.constant * coeff
        for key, coeff in other.quadratic.items():
            quadratic[key] = quadratic.get(key, 0.0) + self.constant * coeff
        for key, coeff in self.quadratic.items():
            quadratic[key] = quadratic.get(key, 0.0) + other.constant * coeff

        # linear x linear  ->  quadratic terms (kept exactly)
        for name_a, coeff_a in self.linear.items():
            for name_b, coeff_b in other.linear.items():
                key = _pair_key(name_a, name_b)
                quadratic[key] = quadratic.get(key, 0.0) + coeff_a * coeff_b

        # linear x quadratic and quadratic x quadratic are degree >= 3:
        # bound them into the remainder with |eps| <= 1.  A product with
        # an empty sum has no terms at all, so it is skipped rather than
        # computed as ``inf * 0 = nan`` when the other sum overflowed.
        def _cross_bound(terms_a: Mapping, terms_b: Mapping) -> float:
            if not terms_a or not terms_b:
                return 0.0
            return summed(abs(v) for v in terms_a.values()) * summed(
                abs(v) for v in terms_b.values()
            )

        cross_hi = (
            _cross_bound(self.linear, other.quadratic)
            + _cross_bound(other.linear, self.quadratic)
            + _cross_bound(self.quadratic, other.quadratic)
        )
        if cross_hi != 0.0:
            remainder = remainder + Interval(-cross_hi, cross_hi)

        # remainder interactions: R_x * (anything of y) and vice versa
        y_bound = other.bound_polynomial_only()
        x_bound = self.bound_polynomial_only()
        remainder = remainder + self.remainder * y_bound + other.remainder * x_bound
        remainder = remainder + self.remainder * other.remainder

        return TaylorModel(constant, linear, quadratic, remainder)

    def __rmul__(self, other: "TaylorModel | Number") -> "TaylorModel":
        return self * other

    def bound_polynomial_only(self) -> Interval:
        """Interval bound of the polynomial part, ignoring the remainder."""
        result = Interval.point(self.constant)
        for coeff in self.linear.values():
            result = result + Interval(-abs(coeff), abs(coeff))
        for (a, b), coeff in self.quadratic.items():
            if a == b:
                result = result + Interval.point(coeff) * Interval(0.0, 1.0)
            else:
                result = result + Interval(-abs(coeff), abs(coeff))
        return result

    def square(self) -> "TaylorModel":
        """``self * self`` — the shared symbols keep the dependency."""
        return self * self

    def reciprocal(self) -> "TaylorModel":
        """``1 / self`` via the Chebyshev (min-max) linear approximation.

        The model's bound must not contain zero.  Over ``[a, b]`` the
        approximation ``1/x ~ alpha*x + zeta`` deviates by at most
        ``delta``; applying it to the model keeps the polynomial part
        linear in the existing symbols while ``delta`` is absorbed into
        the remainder, so the enclosure stays sound.
        """
        interval = self.bound()
        if interval.contains(0.0):
            raise DivisionByZeroIntervalError(f"cannot invert {self!r}: encloses zero")
        a, b = interval.lo, interval.hi
        alpha = -1.0 / (a * b)
        # The secant deviation d(x) = 1/x - alpha*x takes equal values at
        # both endpoints (1/a + 1/b); the opposite extreme sits at the
        # interior tangent point +/-sqrt(a*b).
        root = math.sqrt(a * b)
        if a > 0:
            d_max = 1.0 / a + 1.0 / b
            d_min = 2.0 / root
        else:
            d_max = -2.0 / root
            d_min = 1.0 / a + 1.0 / b
        zeta = 0.5 * (d_max + d_min)
        delta = 0.5 * (d_max - d_min)
        scaled = self.scale(alpha)
        return TaylorModel(
            scaled.constant + zeta,
            scaled.linear,
            scaled.quadratic,
            scaled.remainder + Interval(-delta, delta),
        )

    def _chebyshev(
        self, alpha: float, zeta: float, delta: float, exact: Interval
    ) -> "TaylorModel":
        """Apply ``alpha * self + zeta +/- delta``, capped by the exact image.

        As in :meth:`AffineForm._chebyshev`: over a wide bound the
        min-max line's own range overshoots the exact function image, so
        when it is looser the exact image (as a pure remainder model) is
        returned instead.
        """
        scaled = self.scale(alpha)
        remainder = scaled.remainder
        if delta != 0.0:
            remainder = remainder + Interval(-delta, delta)
        candidate = TaylorModel(
            scaled.constant + zeta, scaled.linear, scaled.quadratic, remainder
        )
        return self._tightest_selection(candidate, exact)

    def sqrt(self) -> "TaylorModel":
        """Square root via the shared Chebyshev linearization coefficients."""
        interval = self.bound()
        coeffs = sqrt_linearization(interval.lo, interval.hi)
        if coeffs is None:
            return TaylorModel.constant_model(math.sqrt(interval.lo))
        return self._chebyshev(*coeffs)

    def exp(self) -> "TaylorModel":
        """Exponential via the shared Chebyshev linearization coefficients."""
        interval = self.bound()
        coeffs = exp_linearization(interval.lo, interval.hi)
        if coeffs is None:
            return TaylorModel.constant_model(math.exp(interval.lo))
        return self._chebyshev(*coeffs)

    def log(self) -> "TaylorModel":
        """Natural logarithm via the shared Chebyshev linearization coefficients."""
        interval = self.bound()
        coeffs = log_linearization(interval.lo, interval.hi)
        if coeffs is None:
            return TaylorModel.constant_model(math.log(interval.lo))
        return self._chebyshev(*coeffs)

    def __abs__(self) -> "TaylorModel":
        """Absolute value; exact when the bound's sign is fixed."""
        interval = self.bound()
        if interval.lo >= 0:
            return TaylorModel(self.constant, self.linear, self.quadratic, self.remainder)
        if interval.hi <= 0:
            return -self
        return self._chebyshev(*abs_linearization(interval.lo, interval.hi))

    def _tightest_selection(self, candidate: "TaylorModel", exact: Interval) -> "TaylorModel":
        """The correlation-keeping ``candidate``, or the exact image when tighter.

        Mirrors :meth:`AffineForm.minimum`: an undecided selection's
        secant blur must not enclose more than the exact interval image
        of min/max, or downstream domains (clamped divisors) break.
        """
        if candidate.bound().width <= exact.width:
            return candidate
        return TaylorModel(
            exact.midpoint, remainder=Interval(-exact.radius, exact.radius)
        )

    def minimum(self, other: "TaylorModel | Number") -> "TaylorModel":
        """``min(x, y)`` through ``(x + y - |x - y|) / 2`` (shared symbols)."""
        other = self._coerce(other)
        candidate = (self + other - abs(self - other)).scale(0.5)
        exact = self.bound().minimum(other.bound())
        return self._tightest_selection(candidate, exact)

    def maximum(self, other: "TaylorModel | Number") -> "TaylorModel":
        """``max(x, y)`` through ``(x + y + |x - y|) / 2`` (shared symbols)."""
        other = self._coerce(other)
        candidate = (self + other + abs(self - other)).scale(0.5)
        exact = self.bound().maximum(other.bound())
        return self._tightest_selection(candidate, exact)

    def __truediv__(self, other: "TaylorModel | Number") -> "TaylorModel":
        if isinstance(other, (int, float)):
            if other == 0:
                raise DivisionByZeroIntervalError("division by zero scalar")
            return self.scale(1.0 / float(other))
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other: "TaylorModel | Number") -> "TaylorModel":
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, exponent: int) -> "TaylorModel":
        if not isinstance(exponent, int) or exponent < 0:
            raise IntervalError(f"only non-negative integer powers supported, got {exponent!r}")
        result = TaylorModel.constant_model(1.0)
        base = self
        power = exponent
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result
