"""Pointwise soundness of the affine-arithmetic kernels.

Every :class:`AffineForm` operation is a thin wrapper around one
``(center, terms)`` kernel of :mod:`repro.intervals.affine`, and the
incremental engine's compiled ``aa`` rules call the same kernels, so
this file gates both.  For random forms over a shared symbol pool and
random symbol values in ``[-1, 1]``, the exact result of an operation at
its operands' values must lie within the result's linear part (its
center plus its coefficients on the pool's symbols) widened by the
magnitudes of the symbols the operation added.  The symbol values
include the corners where an operand reaches an endpoint of its
enclosure, where a Chebyshev line's deviation is largest.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.intervals.affine import AffineContext, AffineForm

POOL = tuple(f"s{k}" for k in range(6))


def _terms(rng, scale):
    picked = rng.sample(POOL, rng.randint(1, len(POOL)))
    return {name: scale * rng.uniform(-1.0, 1.0) for name in picked}


def _free(context, rng):
    """Any form: centers of both signs, radii from tiny to wide."""
    return AffineForm(rng.uniform(-3.0, 3.0), _terms(rng, 10 ** rng.uniform(-3, 0.3)), context)


def _positive(context, rng):
    """A form whose enclosure is positive, from hugging zero to far from it."""
    terms = _terms(rng, 10 ** rng.uniform(-3, 0.3))
    radius = math.fsum(map(abs, terms.values()))
    return AffineForm(radius * rng.uniform(1.0001, 4.0) + 1e-9, terms, context)


def _signed(context, rng):
    """A form whose enclosure excludes zero, on either side of it."""
    form = _positive(context, rng)
    return form if rng.random() < 0.5 else -form


#: name -> (operand generators, the AffineForm operation, the exact function)
OPERATIONS = {
    "mul": ((_free, _free), lambda x, y: x * y, lambda u, v: u * v),
    "mul-self": ((_free,), lambda x: x * x, lambda u: u * u),
    "square": ((_free,), lambda x: x.square(), lambda u: u * u),
    "reciprocal": ((_signed,), lambda x: x.reciprocal(), lambda u: 1.0 / u),
    "sqrt": ((_positive,), lambda x: x.sqrt(), math.sqrt),
    "exp": ((_free,), lambda x: x.exp(), math.exp),
    "log": ((_positive,), lambda x: x.log(), math.log),
    "abs": ((_free,), abs, abs),
    "sum_of": (
        (_free, _free, _free),
        lambda x, y, z: AffineForm.sum_of([x, y, 0.5, -x, z], x.context),
        lambda u, v, w: u + v + 0.5 - u + w,
    ),
}


def _symbol_values(rng, operands):
    """Random values of the pool's symbols, and each operand's two corners."""
    draws = [{name: rng.uniform(-1.0, 1.0) for name in POOL} for _ in range(6)]
    draws.append({name: rng.choice((-1.0, 1.0)) for name in POOL})
    for form in operands:
        for sign in (1.0, -1.0):
            corner = {name: rng.uniform(-1.0, 1.0) for name in POOL}
            corner.update({name: math.copysign(1.0, sign * c) for name, c in form.terms.items()})
            draws.append(corner)
    return draws


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@pytest.mark.parametrize("seed", range(3))
def test_exact_result_lies_within_the_linear_part_widened_by_the_new_symbols(name, seed):
    generators, operation, exact = OPERATIONS[name]
    rng = random.Random(f"affine-kernels/{name}/{seed}")
    widened = 0
    for _ in range(150):
        context = AffineContext()
        for symbol in POOL:
            context.register(symbol)
        operands = [generate(context, rng) for generate in generators]
        result = operation(*operands)
        added = [c for symbol, c in result.terms.items() if symbol not in POOL]
        widening = math.fsum(map(abs, added))
        widened += widening > 0.0
        for values in _symbol_values(rng, operands):
            want = exact(*(form.evaluate(values) for form in operands))
            linear = result.center + math.fsum(
                c * values[symbol] for symbol, c in result.terms.items() if symbol in POOL
            )
            scale = 1.0 + abs(want) + abs(result.center) + result.radius
            assert abs(want - linear) <= widening + 1e-9 * scale, (name, operands, values)
    if name not in ("abs", "sum_of"):
        assert widened > 0
