"""Symbolic expressions over uncertain inputs.

:class:`Expression` is an operator-overloaded expression tree: build it
from :class:`Symbol` and :class:`Constant` leaves with ``+ - * / **``,
then lower it into a dataflow graph with
:func:`~repro.dfg.builder.expression_to_dfg`.  Integer powers are kept
as dedicated :class:`Pow` nodes so the lowering can emit a
dependency-aware square instead of a plain multiplication.
"""

from __future__ import annotations

import math
from typing import Union

from repro.errors import ExpressionError

__all__ = [
    "Expression",
    "Symbol",
    "Constant",
    "as_expression",
]

Number = Union[int, float]


def as_expression(value: "Expression | Number") -> "Expression":
    """Coerce a number into a :class:`Constant` expression."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Constant(float(value))
    raise ExpressionError(f"cannot interpret {type(value).__name__} as an expression")


class Expression:
    """Base class of the expression tree (immutable nodes)."""

    # -- building ------------------------------------------------------- #
    def __add__(self, other: "Expression | Number") -> "Expression":
        return Add(self, as_expression(other))

    def __radd__(self, other: "Expression | Number") -> "Expression":
        return Add(as_expression(other), self)

    def __sub__(self, other: "Expression | Number") -> "Expression":
        return Sub(self, as_expression(other))

    def __rsub__(self, other: "Expression | Number") -> "Expression":
        return Sub(as_expression(other), self)

    def __mul__(self, other: "Expression | Number") -> "Expression":
        return Mul(self, as_expression(other))

    def __rmul__(self, other: "Expression | Number") -> "Expression":
        return Mul(as_expression(other), self)

    def __truediv__(self, other: "Expression | Number") -> "Expression":
        return Div(self, as_expression(other))

    def __rtruediv__(self, other: "Expression | Number") -> "Expression":
        return Div(as_expression(other), self)

    def __neg__(self) -> "Expression":
        return Neg(self)

    def __pow__(self, exponent: int) -> "Expression":
        if not isinstance(exponent, int) or exponent < 0:
            raise ExpressionError(
                f"only non-negative integer powers are supported, got {exponent!r}"
            )
        return Pow(self, exponent)


class Constant(Expression):
    """A literal real constant."""

    __slots__ = ("value",)

    def __init__(self, value: Number) -> None:
        value = float(value)
        if math.isnan(value):
            raise ExpressionError("constant must not be NaN")
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:g}"


class Symbol(Expression):
    """A named symbol (noise symbol or uncertain input)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ExpressionError("symbol name must be non-empty")
        self.name = str(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class _BinaryOp(Expression):
    __slots__ = ("left", "right")
    _symbol = "?"

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} {self._symbol} {self.right!r})"


class Add(_BinaryOp):
    """Sum of two sub-expressions."""

    _symbol = "+"


class Sub(_BinaryOp):
    """Difference of two sub-expressions."""

    _symbol = "-"


class Mul(_BinaryOp):
    """Product of two sub-expressions."""

    _symbol = "*"


class Div(_BinaryOp):
    """Quotient of two sub-expressions."""

    _symbol = "/"


class Neg(Expression):
    """Unary negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"(-{self.operand!r})"


class Pow(Expression):
    """Integer power of a sub-expression.

    Powers are kept as a dedicated node (rather than repeated
    multiplication) so that interval-like algebras can use their
    dependency-aware ``**`` operator — e.g. ``x ** 2`` of an interval
    straddling zero is ``[0, ...]`` instead of the pessimistic
    ``x * x``.
    """

    __slots__ = ("operand", "exponent")

    def __init__(self, operand: Expression, exponent: int) -> None:
        if not isinstance(exponent, int) or exponent < 0:
            raise ExpressionError(
                f"only non-negative integer powers are supported, got {exponent!r}"
            )
        self.operand = operand
        self.exponent = exponent

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.operand!r} ** {self.exponent})"
