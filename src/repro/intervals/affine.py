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
from functools import partial
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple, Union

from repro.errors import DivisionByZeroIntervalError, IntervalError
from repro.intervals.interval import Interval
from repro.intervals.linearize import (
    abs_linearization,
    exp_linearization,
    log_linearization,
    sqrt_linearization,
)
from repro.utils.mathutils import fsum_or_inf

__all__ = ["AffineContext", "AffineForm"]

Number = Union[int, float]

#: A form as the kernels below take and return it: ``(center, terms)``.
Pair = Tuple[float, Dict[str, float]]

#: Names the one symbol a kernel adds, when it adds one: ``context.fresh``
#: for a form, a fixed name for a compiled error rule.
Site = Callable[[], str]


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


# ---------------------------------------------------------------------- #
# the (center, terms) kernels
# ---------------------------------------------------------------------- #
# Every AffineForm operation below is a thin wrapper around these, and the
# incremental engine's compiled ``aa`` error rules call them directly on
# plain ``(center, terms)`` pairs, without building, cleaning and
# registering a form per step.  A ``terms`` dict a kernel returns is new,
# so the caller may add to it.  A kernel that adds a linearization symbol
# names it by calling its ``site`` at that point, so a symbol is drawn
# only when one is added.


def _radius(terms: Mapping[str, float]) -> float:
    """The correctly rounded sum of ``|coeff|``; ``+inf`` past the float range."""
    return fsum_or_inf(map(abs, terms.values()))


def _checked(lo: float, hi: float) -> Tuple[float, float]:
    """``(lo, hi)``, or the ``NonFiniteError`` of ``Interval(lo, hi)`` (a NaN bound)."""
    if not lo <= hi:
        Interval(lo, hi)
    return lo, hi


def _bounds(center: float, radius: float) -> Tuple[float, float]:
    """The enclosure ``[center - radius, center + radius]`` as endpoints."""
    return _checked(center - radius, center + radius)


def _nonzero(terms: Dict[str, float]) -> Dict[str, float]:
    """``terms`` without its exact zeros, order kept (``terms`` itself when it has none)."""
    if 0.0 in terms.values():
        return {name: coeff for name, coeff in terms.items() if coeff != 0.0}
    return terms


def _negated(terms: Mapping[str, float]) -> Dict[str, float]:
    """Every coefficient negated (a non-zero one never becomes zero)."""
    return {name: -coeff for name, coeff in terms.items()}


def _scaled(terms: Mapping[str, float], factor: float) -> Dict[str, float]:
    """Every coefficient times ``factor``, exact zeros dropped."""
    return _nonzero({name: coeff * factor for name, coeff in terms.items()})


def _folded(terms: Dict[str, float], *others: Mapping[str, float]) -> Dict[str, float]:
    """``terms`` plus ``others``, per symbol left to right, exact zeros dropped.

    A symbol's first coefficient enters as is (``0.0 + c == c`` for the
    non-zero ``c`` of a form); only a symbol two operands share can
    cancel.  Symbols keep their first-seen order: a set union would follow
    the per-process string-hash seed, and so would every float reduction
    over the terms downstream.  ``terms`` is updated in place.
    """
    shared = False
    for other in others:
        common = terms.keys() & other.keys()
        if common:
            prior = {name: terms[name] for name in common}
            terms.update(other)
            for name in common:
                terms[name] = prior[name] + other[name]
            shared = True
        else:
            terms.update(other)
    return _nonzero(terms) if shared else terms


def _summed(forms: Sequence[Pair]) -> Pair:
    """The sum of one or more pairs, centers left-folded from ``0.0``."""
    center = 0.0
    for c, _ in forms:
        center += c
    (_, first), *rest = forms
    return center, _folded(dict(first), *[terms for _, terms in rest])


def _product(
    x0: float,
    xt: Mapping[str, float],
    xr: float | None,
    y0: float,
    yt: Mapping[str, float],
    yr: float | None,
    site: Site,
) -> Pair:
    """The standard AA product of ``x`` and ``y``.

    ``z0 = x0*y0``, ``zi = x0*yi + y0*xi`` (first-order terms), and a new
    symbol of coefficient ``rad(x)*rad(y)`` bounds the second-order rest.
    A term-free operand is an exact scalar: no new symbol.  ``xr``/``yr``
    are the radii, or ``None`` to sum them here; a radius is read only
    when both forms have terms.
    """
    if not yt:
        return x0 * y0, _scaled(xt, y0)
    if not xt:
        return y0 * x0, _scaled(yt, x0)
    if x0 * 0.0 == 0.0 and y0 * 0.0 == 0.0:
        # Finite centers: a symbol of one form only gets ``c * coeff``
        # plus the signed zero ``other_center * 0.0``, which changes no
        # non-zero coefficient.
        terms = {name: y0 * coeff for name, coeff in xt.items()}
        common = xt.keys() & yt.keys()
        terms.update({name: x0 * coeff for name, coeff in yt.items()})
        for name in common:
            terms[name] = x0 * yt[name] + y0 * xt[name]
        terms = _nonzero(terms)
    else:
        terms = {}
        for name in {**dict.fromkeys(xt), **dict.fromkeys(yt)}:
            value = x0 * yt.get(name, 0.0) + y0 * xt.get(name, 0.0)
            if value != 0.0:
                terms[name] = value
    nonlinear = (_radius(xt) if xr is None else xr) * (_radius(yt) if yr is None else yr)
    if nonlinear != 0.0:
        terms[site()] = nonlinear
    return x0 * y0, terms


def _squared(center: float, terms: Mapping[str, float], radius: float, site: Site) -> Pair:
    """Dependency-aware square, tighter than the product of a form with itself.

    ``(x0 + d)^2 = x0^2 + 2*x0*d + d^2`` with ``d^2`` in ``[0, rad^2]``
    re-centred as ``rad^2/2 +/- rad^2/2``.
    """
    half = 0.5 * radius * radius
    twice = 2.0 * center
    out = {name: twice * coeff for name, coeff in terms.items()}
    if half != 0.0:
        out[site()] = half
    return center * center + half, _nonzero(out)


def _inverse(center: float, terms: Mapping[str, float], radius: float, site: Site) -> Pair:
    """``1 / x`` via the Chebyshev (min-max) linear approximation.

    With the secant slope ``alpha = -1/(a*b)`` the deviation
    ``d(x) = 1/x - alpha*x`` is equal at both endpoints (``1/a + 1/b``);
    the opposite extreme is at the interior tangent point
    ``+/-sqrt(a*b)``.  Using the two endpoints for ``d_max``/``d_min``
    would make ``delta`` collapse to zero and lose soundness.
    """
    a, b = _bounds(center, radius)
    if a <= 0.0 <= b:
        raise DivisionByZeroIntervalError(
            f"cannot invert {_format(center, terms)}: encloses zero"
        )
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
    out = _scaled(terms, alpha)
    if delta != 0.0:
        out[site()] = delta
    return center * alpha + zeta, out


def _tightest(center: float, terms: Dict[str, float], exact: Interval, site: Site) -> Pair:
    """The correlation-keeping pair, or the exact image ``exact`` in one symbol.

    A Chebyshev line (or the ``(x + y -+ |x - y|) / 2`` min/max
    construction) keeps shared symbols, but over a wide enclosure its own
    range can overshoot the exact image of the function — enough to
    poison downstream domains (an ``exp`` enclosure dipping below zero, a
    clamped divisor's enclosure dipping through zero).  When the pair is
    wider than the exact image, the image wrapped in a new symbol is the
    tighter (and still sound) result: range-tight, correlation-free.
    """
    lo, hi = _bounds(center, _radius(terms))
    if hi - lo <= exact.hi - exact.lo:
        return center, terms
    radius = exact.radius
    return exact.midpoint, ({site(): radius} if radius != 0.0 else {})


def _curve(
    center: float,
    terms: Mapping[str, float],
    radius: float,
    linearize: Callable[[float, float], Any],
    point: Callable[[float], float],
    site: Site,
) -> Pair:
    """A function through its min-max line ``alpha * x + zeta +/- delta``.

    ``linearize`` gives the line and the exact image over the enclosure
    (:mod:`repro.intervals.linearize`), and :func:`_tightest` picks the
    line or the image.  A point enclosure gives ``point(lo)``.
    """
    lo, hi = _bounds(center, radius)
    line = linearize(lo, hi)
    if line is None:
        return point(lo), {}
    alpha, zeta, delta, exact = line
    out = _scaled(terms, alpha)
    if delta != 0.0:
        out[site()] = delta
    return _tightest(center * alpha + zeta, out, exact, site)


def _format(center: float, terms: Mapping[str, float]) -> str:
    """A form's ``repr``: its center, then its terms by symbol name."""
    parts = [f"{center:g}"]
    for name in sorted(terms):
        parts.append(f"{terms[name]:+g}*{name}")
    return f"AffineForm({' '.join(parts)})"


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

    @classmethod
    def _trusted(
        cls, center: float, terms: Dict[str, float], context: AffineContext
    ) -> "AffineForm":
        """Wrap an already-clean term dict without re-cleaning it.

        For results built from forms of ``context`` itself: ``center``
        and every coefficient are floats, ``terms`` holds no exact zero,
        and every name is one the context already issued or registered.
        The public constructor would return an equal form (same center,
        same terms in the same order, same ``context.symbols``); this
        skips its per-term ``float``/``str`` conversion and ``register``.
        """
        form = object.__new__(cls)
        form.center = center
        form.terms = terms
        form.context = context
        return form

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def radius(self) -> float:
        """Total deviation ``sum(|x_i|)`` — half the enclosing width.

        Correctly rounded (:func:`math.fsum`), so it depends neither on the
        order of :attr:`terms` nor on the Python version; ``+inf`` when the
        sum passes the float range.
        """
        return _radius(self.terms)

    def coefficient(self, name: str) -> float:
        """Coefficient of noise symbol ``name`` (0 when absent)."""
        return self.terms.get(name, 0.0)

    def to_interval(self) -> Interval:
        """The interval enclosure ``[center - radius, center + radius]``."""
        return Interval(*_bounds(self.center, self.radius))

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
        return _format(self.center, self.terms)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _coerce(self, other: "AffineForm | Number") -> "AffineForm":
        if isinstance(other, AffineForm):
            return other
        if isinstance(other, (int, float)):
            return AffineForm._trusted(float(other), {}, self.context)
        raise TypeError(f"cannot combine AffineForm with {type(other).__name__}")

    def _result(self, other: "AffineForm", center: float, terms: Dict[str, float]) -> "AffineForm":
        """A result of ``self`` and ``other`` in this context.

        An operand from another context brings symbols this one must
        register, so that result goes through the public constructor.
        """
        if other.context is not self.context:
            return AffineForm(center, terms, self.context)
        return AffineForm._trusted(center, terms, self.context)

    # ------------------------------------------------------------------ #
    # linear arithmetic (exact)
    # ------------------------------------------------------------------ #
    def __neg__(self) -> "AffineForm":
        return AffineForm._trusted(-self.center, _negated(self.terms), self.context)

    def __add__(self, other: "AffineForm | Number") -> "AffineForm":
        other = self._coerce(other)
        terms = _folded(dict(self.terms), other.terms)
        return self._result(other, self.center + other.center, terms)

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
        """N-ary sum in one pass over the operands' terms.

        Chained binary ``+`` rebuilds the merged term dict once per
        operand — O(n * union) dict churn on the analyzer's hot path.
        Here each operand's terms are folded into one dict; the addition
        order per symbol matches the left-fold chain, so results are
        bit-identical to ``a + b + c + ...`` (the center starts from
        ``0.0``).
        """
        forms = [item for item in items if isinstance(item, AffineForm)]
        if context is None:
            context = forms[0].context if forms else _DEFAULT_CONTEXT
        if not items:
            return cls._trusted(0.0, {}, context)
        center, terms = _summed(
            [(item.center, item.terms) if isinstance(item, AffineForm) else (float(item), {})
             for item in items]
        )
        if all(form.context is context for form in forms):
            return cls._trusted(center, terms, context)
        # Terms of forms from another context must be registered in this one.
        return cls(center, terms, context)

    def scale(self, factor: Number) -> "AffineForm":
        """Multiply by an exact scalar (no new noise symbol)."""
        factor = float(factor)
        return AffineForm._trusted(self.center * factor, _scaled(self.terms, factor), self.context)

    def shift(self, offset: Number) -> "AffineForm":
        """Add an exact scalar."""
        return AffineForm._trusted(self.center + float(offset), dict(self.terms), self.context)

    # ------------------------------------------------------------------ #
    # nonlinear arithmetic (introduces fresh symbols)
    # ------------------------------------------------------------------ #
    def __mul__(self, other: "AffineForm | Number") -> "AffineForm":
        if isinstance(other, (int, float)):
            return self.scale(other)
        other = self._coerce(other)
        product = _product(
            self.center, self.terms, None, other.center, other.terms, None, self.context.fresh
        )
        return self._result(other, *product)

    def __rmul__(self, other: "AffineForm | Number") -> "AffineForm":
        return self * other

    def square(self) -> "AffineForm":
        """Dependency-aware square, tighter than ``self * self`` (see :func:`_squared`)."""
        square = _squared(self.center, self.terms, self.radius, self.context.fresh)
        return AffineForm._trusted(*square, self.context)

    def reciprocal(self) -> "AffineForm":
        """``1 / self`` via the Chebyshev (min-max) linear approximation (see :func:`_inverse`)."""
        inverse = _inverse(self.center, self.terms, self.radius, self.context.fresh)
        return AffineForm._trusted(*inverse, self.context)

    def _through(
        self, linearize: Callable[[float, float], Any], point: Callable[[float], float]
    ) -> "AffineForm":
        """A function through its shared Chebyshev coefficients (see :func:`_curve`)."""
        image = _curve(self.center, self.terms, self.radius, linearize, point, self.context.fresh)
        return AffineForm._trusted(*image, self.context)

    def sqrt(self) -> "AffineForm":
        """Square root via the shared Chebyshev linearization coefficients."""
        return self._through(sqrt_linearization, math.sqrt)

    def exp(self) -> "AffineForm":
        """Exponential via the shared Chebyshev linearization coefficients."""
        return self._through(exp_linearization, math.exp)

    def log(self) -> "AffineForm":
        """Natural logarithm via the shared Chebyshev linearization coefficients."""
        return self._through(log_linearization, math.log)

    def __abs__(self) -> "AffineForm":
        """Absolute value; exact when the enclosure's sign is fixed."""
        lo, hi = _bounds(self.center, self.radius)
        if lo >= 0:
            return AffineForm._trusted(self.center, dict(self.terms), self.context)
        if hi <= 0:
            return -self
        return self._through(abs_linearization, abs)

    def _selected(self, candidate: "AffineForm", exact: Interval) -> "AffineForm":
        """``candidate``, or ``exact`` in a fresh ``sel`` symbol (see :func:`_tightest`)."""
        site = partial(self.context.fresh, "sel")
        return AffineForm._trusted(
            *_tightest(candidate.center, candidate.terms, exact, site), self.context
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
        return self._selected(candidate, self.to_interval().minimum(other.to_interval()))

    def maximum(self, other: "AffineForm | Number") -> "AffineForm":
        """``max(x, y)`` through ``(x + y + |x - y|) / 2`` (see minimum)."""
        other = self._coerce(other)
        candidate = (self + other + abs(self - other)).scale(0.5)
        return self._selected(candidate, self.to_interval().maximum(other.to_interval()))

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
