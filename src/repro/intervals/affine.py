"""Affine arithmetic (AA).

An :class:`AffineForm` represents an uncertain value as

``x = x0 + x1 * eps_1 + x2 * eps_2 + ... + xn * eps_n``

where every noise symbol ``eps_i`` ranges over ``[-1, +1]``.  Affine
forms keep *first-order* correlations between quantities that share noise
symbols, which is what makes AA tighter than plain interval arithmetic on
linear computations.  Nonlinear operations (multiplication, division)
introduce a fresh noise symbol that soaks up the linearization error, at
which point correlation information is lost — exactly the weakness the
paper's quadratic example (Table 1) exposes and that Symbolic Noise
Analysis addresses by keeping the full joint distribution instead.

Noise-symbol identity is managed by an :class:`AffineContext`; forms built
in the same context share symbols by name, so ``x - x`` is exactly zero
while ``x * x`` (a nonlinear op) is not exactly ``x ** 2``.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Mapping, Sequence, Union

import numpy as np

from repro.errors import DivisionByZeroIntervalError, IntervalError
from repro.intervals.interval import Interval
from repro.intervals.linearize import (
    abs_linearization,
    exp_linearization,
    log_linearization,
    sqrt_linearization,
)

__all__ = ["AffineContext", "AffineForm"]

Number = Union[int, float]


class AffineContext:
    """Factory for noise-symbol names used by a family of affine forms.

    A context hands out fresh, unique symbol names (``"u1"``, ``"u2"``,
    ...) for the linearization terms created by nonlinear operations, and
    lets callers register named input symbols (``"x"``, ``"a"``, ...).
    Keeping symbol allocation in an explicit object (rather than a global
    counter) makes analyses reproducible and lets tests run in isolation.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._known: set[str] = set()

    def fresh(self, prefix: str = "u") -> str:
        """Return a new, unique noise-symbol name with the given prefix."""
        while True:
            name = f"{prefix}{next(self._counter)}"
            if name not in self._known:
                self._known.add(name)
                return name

    def register(self, name: str) -> str:
        """Register (idempotently) an externally chosen symbol name."""
        self._known.add(name)
        return name

    @property
    def symbols(self) -> frozenset[str]:
        """All symbol names issued or registered so far."""
        return frozenset(self._known)

    # ------------------------------------------------------------------ #
    # constructors for forms bound to this context
    # ------------------------------------------------------------------ #
    def constant(self, value: Number) -> "AffineForm":
        """An affine form with no uncertainty."""
        return AffineForm(float(value), {}, context=self)

    def variable(self, name: str, lo: Number, hi: Number) -> "AffineForm":
        """An input variable uniformly enclosed in ``[lo, hi]``.

        The returned form is ``midpoint + radius * eps_name``.
        """
        lo = float(lo)
        hi = float(hi)
        if lo > hi:
            raise IntervalError(f"invalid range for {name!r}: [{lo}, {hi}]")
        self.register(name)
        midpoint = 0.5 * (lo + hi)
        radius = 0.5 * (hi - lo)
        terms = {name: radius} if radius != 0.0 else {}
        return AffineForm(midpoint, terms, context=self)


_DEFAULT_CONTEXT = AffineContext()


class AffineForm:
    """An affine combination of ``[-1, 1]`` noise symbols plus a constant."""

    __slots__ = ("center", "terms", "context")

    def __init__(
        self,
        center: Number,
        terms: Mapping[str, Number] | None = None,
        context: AffineContext | None = None,
    ) -> None:
        self.center = float(center)
        self.context = context if context is not None else _DEFAULT_CONTEXT
        cleaned: Dict[str, float] = {}
        for name, coeff in (terms or {}).items():
            coeff = float(coeff)
            if coeff != 0.0:
                cleaned[str(name)] = coeff
                self.context.register(str(name))
        self.terms = cleaned

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def radius(self) -> float:
        """Total deviation ``sum(|x_i|)`` — half the enclosing width."""
        return sum(abs(c) for c in self.terms.values())

    def coefficient(self, name: str) -> float:
        """Coefficient of noise symbol ``name`` (0 when absent)."""
        return self.terms.get(name, 0.0)

    def to_interval(self) -> Interval:
        """The interval enclosure ``[center - radius, center + radius]``."""
        radius = self.radius
        return Interval(self.center - radius, self.center + radius)

    def symbols(self) -> frozenset[str]:
        """Noise symbols with a non-zero coefficient in this form."""
        return frozenset(self.terms)

    def evaluate(self, assignment: Mapping[str, Number]) -> float:
        """Evaluate the form for a concrete assignment of noise symbols.

        Symbols absent from ``assignment`` are taken as 0; values are
        clipped into ``[-1, 1]`` since that is the domain of a noise
        symbol.
        """
        total = self.center
        for name, coeff in self.terms.items():
            eps = float(assignment.get(name, 0.0))
            eps = max(-1.0, min(1.0, eps))
            total += coeff * eps
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{self.center:g}"]
        for name in sorted(self.terms):
            parts.append(f"{self.terms[name]:+g}*{name}")
        return f"AffineForm({' '.join(parts)})"

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _coerce(self, other: "AffineForm | Number") -> "AffineForm":
        if isinstance(other, AffineForm):
            return other
        if isinstance(other, (int, float)):
            return AffineForm(float(other), {}, context=self.context)
        raise TypeError(f"cannot combine AffineForm with {type(other).__name__}")

    def _merged_symbols(self, other: "AffineForm") -> Iterable[str]:
        # Insertion-order union, NOT a set union: set iteration order
        # follows the per-process string-hash seed, so a set here makes
        # the merged term dict — and every downstream float reduction
        # over ``terms.values()`` (radius, interval hull) — differ in
        # the last ulp between worker processes.  Deterministic order is
        # what lets sharded runs merge bit-identically to serial ones.
        merged = dict.fromkeys(self.terms)
        merged.update(dict.fromkeys(other.terms))
        return merged

    # ------------------------------------------------------------------ #
    # linear arithmetic (exact)
    # ------------------------------------------------------------------ #
    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.center, {k: -v for k, v in self.terms.items()}, self.context)

    def __add__(self, other: "AffineForm | Number") -> "AffineForm":
        other = self._coerce(other)
        terms = {
            name: self.coefficient(name) + other.coefficient(name)
            for name in self._merged_symbols(other)
        }
        return AffineForm(self.center + other.center, terms, self.context)

    __radd__ = __add__

    def __sub__(self, other: "AffineForm | Number") -> "AffineForm":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "AffineForm | Number") -> "AffineForm":
        return self._coerce(other) - self

    @classmethod
    def sum_of(
        cls,
        items: Sequence["AffineForm | Number"],
        context: AffineContext | None = None,
    ) -> "AffineForm":
        """N-ary sum over aligned coefficient arrays.

        Chained binary ``+`` rebuilds the merged term dict once per
        operand — O(n * union) dict churn on the analyzer's hot path.
        Here every symbol is assigned one slot in a shared coefficient
        array and each operand scatters its coefficients into it, so the
        whole sum is one O(total terms) pass.  Addition order per symbol
        matches the left-fold chain, so results are bit-identical to
        ``a + b + c + ...``.
        """
        forms = [item for item in items if isinstance(item, AffineForm)]
        center = 0.0
        for item in items:
            center += item.center if isinstance(item, AffineForm) else float(item)
        if context is None:
            context = forms[0].context if forms else _DEFAULT_CONTEXT
        if not forms:
            return cls(center, {}, context)
        if sum(len(form.terms) for form in forms) <= 24:
            # Below the numpy break-even point a plain single-pass dict
            # accumulation wins; per-symbol addition order is unchanged.
            small: Dict[str, float] = {}
            for form in forms:
                for name, coeff in form.terms.items():
                    small[name] = small.get(name, 0.0) + coeff
            return cls(center, small, context)
        slot: Dict[str, int] = {}
        for form in forms:
            for name in form.terms:
                if name not in slot:
                    slot[name] = len(slot)
        coeffs = np.zeros(len(slot), dtype=float)
        for form in forms:
            if not form.terms:
                continue
            idx = np.fromiter(
                (slot[name] for name in form.terms), dtype=np.intp, count=len(form.terms)
            )
            coeffs[idx] += np.fromiter(form.terms.values(), dtype=float, count=len(form.terms))
        terms = {name: coeffs[i] for name, i in slot.items() if coeffs[i] != 0.0}
        return cls(center, terms, context)

    def scale(self, factor: Number) -> "AffineForm":
        """Multiply by an exact scalar (no new noise symbol)."""
        factor = float(factor)
        return AffineForm(
            self.center * factor,
            {name: coeff * factor for name, coeff in self.terms.items()},
            self.context,
        )

    def shift(self, offset: Number) -> "AffineForm":
        """Add an exact scalar."""
        return AffineForm(self.center + float(offset), dict(self.terms), self.context)

    # ------------------------------------------------------------------ #
    # nonlinear arithmetic (introduces fresh symbols)
    # ------------------------------------------------------------------ #
    def __mul__(self, other: "AffineForm | Number") -> "AffineForm":
        if isinstance(other, (int, float)):
            return self.scale(other)
        other = self._coerce(other)
        # A term-free operand is an exact scalar: multiply coefficients
        # directly (no linearization symbol; same floats as the general
        # path, which would compute center * coeff per symbol anyway).
        if not other.terms:
            return self.scale(other.center)
        if not self.terms:
            return other.scale(self.center)
        # Standard AA multiplication:
        #   z0 = x0*y0
        #   zi = x0*yi + y0*xi       (first-order terms)
        #   new symbol with coefficient rad(x)*rad(y)  (second-order bound)
        center = self.center * other.center
        terms: Dict[str, float] = {}
        for name in self._merged_symbols(other):
            coeff = self.center * other.coefficient(name) + other.center * self.coefficient(name)
            if coeff != 0.0:
                terms[name] = coeff
        nonlinear = self.radius * other.radius
        if nonlinear != 0.0:
            terms[self.context.fresh()] = nonlinear
        return AffineForm(center, terms, self.context)

    def __rmul__(self, other: "AffineForm | Number") -> "AffineForm":
        return self * other

    def square(self) -> "AffineForm":
        """Dependency-aware square, tighter than ``self * self``.

        Uses the min-range style approximation
        ``(x0 + d)^2 = x0^2 + 2*x0*d + d^2`` with ``d^2`` in
        ``[0, rad^2]`` re-centred as ``rad^2/2 +/- rad^2/2``.
        """
        rad = self.radius
        terms = {name: 2.0 * self.center * coeff for name, coeff in self.terms.items()}
        center = self.center * self.center + 0.5 * rad * rad
        if rad != 0.0:
            terms[self.context.fresh()] = 0.5 * rad * rad
        return AffineForm(center, terms, self.context)

    def reciprocal(self) -> "AffineForm":
        """``1 / self`` via the Chebyshev (min-max) linear approximation.

        With the secant slope ``alpha = -1/(a*b)`` the deviation
        ``d(x) = 1/x - alpha*x`` is equal at both endpoints (``1/a + 1/b``);
        the opposite extreme is at the interior tangent point
        ``+/-sqrt(a*b)``.  Using the two endpoints for ``d_max``/``d_min``
        would make ``delta`` collapse to zero and lose soundness.
        """
        interval = self.to_interval()
        if interval.contains(0.0):
            raise DivisionByZeroIntervalError(f"cannot invert {self!r}: encloses zero")
        a, b = interval.lo, interval.hi
        alpha = -1.0 / (a * b)
        root = math.sqrt(a * b)
        if a > 0:
            d_max = 1.0 / a + 1.0 / b
            d_min = 2.0 / root
        else:
            d_max = -2.0 / root
            d_min = 1.0 / a + 1.0 / b
        zeta = 0.5 * (d_max + d_min)
        delta = 0.5 * (d_max - d_min)
        result = self.scale(alpha).shift(zeta)
        if delta != 0.0:
            terms = dict(result.terms)
            terms[self.context.fresh()] = delta
            result = AffineForm(result.center, terms, self.context)
        return result

    def _with_fresh(self, form: "AffineForm", delta: float) -> "AffineForm":
        """``form`` plus a fresh noise symbol of radius ``delta``."""
        if delta == 0.0:
            return form
        terms = dict(form.terms)
        terms[self.context.fresh()] = delta
        return AffineForm(form.center, terms, self.context)

    def _chebyshev(
        self, alpha: float, zeta: float, delta: float, exact: Interval
    ) -> "AffineForm":
        """Apply ``alpha * x + zeta +/- delta``, capped by the exact image.

        The min-max line keeps the operand's noise symbols (first-order
        correlation), but over a wide enclosure its own range overshoots
        the exact image of the function by up to ``2 * delta`` — enough
        to push e.g. an ``exp`` enclosure below zero.  When that
        happens, the exact image wrapped in a fresh symbol is the
        tighter (and still sound) result.
        """
        candidate = self._with_fresh(self.scale(alpha).shift(zeta), delta)
        return self._tightest_selection(candidate, exact)

    def sqrt(self) -> "AffineForm":
        """Square root via the shared Chebyshev linearization coefficients."""
        interval = self.to_interval()
        coeffs = sqrt_linearization(interval.lo, interval.hi)
        if coeffs is None:
            return AffineForm(math.sqrt(interval.lo), {}, self.context)
        return self._chebyshev(*coeffs)

    def exp(self) -> "AffineForm":
        """Exponential via the shared Chebyshev linearization coefficients."""
        interval = self.to_interval()
        coeffs = exp_linearization(interval.lo, interval.hi)
        if coeffs is None:
            return AffineForm(math.exp(interval.lo), {}, self.context)
        return self._chebyshev(*coeffs)

    def log(self) -> "AffineForm":
        """Natural logarithm via the shared Chebyshev linearization coefficients."""
        interval = self.to_interval()
        coeffs = log_linearization(interval.lo, interval.hi)
        if coeffs is None:
            return AffineForm(math.log(interval.lo), {}, self.context)
        return self._chebyshev(*coeffs)

    def __abs__(self) -> "AffineForm":
        """Absolute value; exact when the enclosure's sign is fixed."""
        interval = self.to_interval()
        if interval.lo >= 0:
            return AffineForm(self.center, dict(self.terms), self.context)
        if interval.hi <= 0:
            return -self
        return self._chebyshev(*abs_linearization(interval.lo, interval.hi))

    def _tightest_selection(self, candidate: "AffineForm", exact: Interval) -> "AffineForm":
        """Pick the correlation-keeping ``candidate`` or an exact-image wrap.

        The Chebyshev line (and the ``(x + y -+ |x - y|) / 2`` min/max
        construction) keeps shared symbols, but over a wide enclosure its
        own range can overshoot the exact image of the function — enough
        to poison downstream domains (a clamped divisor's enclosure
        dipping through zero).  When the formula is looser than the
        exact image, fall back to wrapping the image in a fresh symbol:
        range-tight, correlation-free.
        """
        enclosure = candidate.to_interval()
        if enclosure.width <= exact.width:
            return candidate
        if exact.radius == 0.0:
            return AffineForm(exact.midpoint, {}, self.context)
        return AffineForm(
            exact.midpoint, {self.context.fresh("sel"): exact.radius}, self.context
        )

    def minimum(self, other: "AffineForm | Number") -> "AffineForm":
        """``min(x, y)`` through the identity ``(x + y - |x - y|) / 2``.

        Shared noise symbols keep the correlation: when the sign of
        ``x - y`` is decided by the enclosures, the result is exactly the
        smaller operand.  If the blur of an undecided selection makes the
        formula looser than the exact interval image, the image (wrapped
        in a fresh symbol) is returned instead.
        """
        other = self._coerce(other)
        candidate = (self + other - abs(self - other)).scale(0.5)
        exact = self.to_interval().minimum(other.to_interval())
        return self._tightest_selection(candidate, exact)

    def maximum(self, other: "AffineForm | Number") -> "AffineForm":
        """``max(x, y)`` through ``(x + y + |x - y|) / 2`` (see minimum)."""
        other = self._coerce(other)
        candidate = (self + other + abs(self - other)).scale(0.5)
        exact = self.to_interval().maximum(other.to_interval())
        return self._tightest_selection(candidate, exact)

    def __truediv__(self, other: "AffineForm | Number") -> "AffineForm":
        if isinstance(other, (int, float)):
            if other == 0:
                raise DivisionByZeroIntervalError("division by zero scalar")
            return self.scale(1.0 / float(other))
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other: "AffineForm | Number") -> "AffineForm":
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, exponent: int) -> "AffineForm":
        if not isinstance(exponent, int) or exponent < 0:
            raise IntervalError(f"only non-negative integer powers supported, got {exponent!r}")
        if exponent == 0:
            return AffineForm(1.0, {}, self.context)
        if exponent == 1:
            return AffineForm(self.center, dict(self.terms), self.context)
        if exponent == 2:
            return self.square()
        # x^n = (x^2)^(n//2) for even n, and x * (x^2)^(n//2) for odd n.
        half = self.square() ** (exponent // 2)
        if exponent % 2 == 1:
            return half * self
        return half
