"""Bit-true arbitrary-precision oracle for the fixed-point validator.

The float64 Monte-Carlo validator has a blind spot: the "exact" reference
and the bit-true datapath are both computed in float64, whose own
rounding (~1e-16 relative per operation) becomes visible once formats
grow wide enough that quantization steps approach the float64 ulp.  This
module re-runs both simulations in arbitrary-precision arithmetic
(``mpmath``, at :data:`DEFAULT_PRECISION_BITS` bits by default):

* the reference path evaluates the graph exactly (well, at 128+ bits —
  out-resolving float64 by ~20 decimal digits);
* the fixed-point path applies *exact* quantization: ``value / step`` is
  computed without rounding before the floor/round step, so the simulated
  datapath is the true mathematical fixed-point machine rather than
  float64's approximation of it.

The oracle runs the float64 validator's own skeleton,
:func:`~repro.analysis.montecarlo.sampled_error`, with only the simulator
swapped, so for equal seeds the oracle and the float64 validator see
*identical* input samples and their per-sample errors are directly
comparable — :func:`oracle_agreement` quantifies the gap.

``mpmath`` transparently uses ``gmpy2`` as its backing bignum library
when that package is importable (:data:`HAVE_GMPY2`); nothing else is
required to enable the acceleration.  The oracle walks samples in a
scalar Python loop, so budget samples in the hundreds, not the tens of
thousands — it is a referee for the validator, not a replacement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.analysis.montecarlo import MonteCarloResult, monte_carlo_error, sampled_error
from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.errors import NoiseModelError
from repro.fixedpoint.format import OverflowMode, QuantizationMode
from repro.intervals.interval import Interval
from repro.noisemodel.assignment import WordLengthAssignment

try:  # pragma: no cover - import probing
    import mpmath

    HAVE_MPMATH = True
except ModuleNotFoundError:  # pragma: no cover - mpmath ships with the toolchain
    mpmath = None  # type: ignore[assignment]
    HAVE_MPMATH = False

try:  # pragma: no cover - optional accelerator
    import gmpy2  # noqa: F401

    HAVE_GMPY2 = True
except ModuleNotFoundError:  # pragma: no cover - acceleration only
    HAVE_GMPY2 = False

__all__ = [
    "OracleResult",
    "oracle_error",
    "oracle_agreement",
    "DEFAULT_PRECISION_BITS",
    "HAVE_MPMATH",
    "HAVE_GMPY2",
]

#: Default mpmath working precision.  128 bits leaves the oracle's own
#: rounding ~19 decimal orders below float64's, so any disagreement it
#: reports is the float64 validator's.
DEFAULT_PRECISION_BITS = 128

#: Documented per-sample agreement tolerance of :func:`oracle_agreement`
#: on the benchmark circuits: float64 rounding noise through a
#: small-depth datapath stays ~1e-13, so 1e-9 passes with margin while
#: still catching any real modelling divergence between the simulators.
AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class OracleResult(MonteCarloResult):
    """Arbitrary-precision fixed-point error statistics for one output."""

    precision_bits: int = DEFAULT_PRECISION_BITS


def _require_mpmath() -> None:
    if not HAVE_MPMATH:
        raise NoiseModelError(
            "the arbitrary-precision oracle requires mpmath, which is not "
            "installed in this environment"
        )


def _quantize_exact(value: Any, fmt: Any, quantization: QuantizationMode, overflow: OverflowMode):
    """Exact-arithmetic replica of :func:`repro.fixedpoint.quantize.quantize`.

    ``fmt.step`` is a power of two, so ``value / step`` is exact here
    (mpmath re-scales the exponent) where float64 may already have
    rounded ``value`` itself.  Round-half-away-from-zero matches the
    hardware convention of the float64 path.
    """
    mpf = mpmath.mpf
    step = mpf(fmt.step)
    scaled = value / step
    if quantization is QuantizationMode.ROUND:
        magnitude = mpmath.floor(abs(scaled) + mpf("0.5"))
        quantized = -magnitude if scaled < 0 else magnitude
    else:  # TRUNCATE
        quantized = mpmath.floor(scaled)
    result = quantized * step
    lo = mpf(fmt.min_value)
    hi = mpf(fmt.max_value)
    if overflow is OverflowMode.SATURATE:
        if result < lo:
            return lo
        if result > hi:
            return hi
        return result
    span = mpf(fmt.modulus)
    shifted = result - lo
    return shifted - mpmath.floor(shifted / span) * span + lo


def _apply_op_exact(node: Any, operands: List[Any]):
    """mpmath replica of :func:`repro.dfg.evaluate._apply_op_raw`.

    Domain violations degrade to NaN exactly like the float64 simulators
    (``np.sqrt(-x)``/``np.log(-x)`` yield NaN, not exceptions), so both
    paths stay comparable sample-by-sample.
    """
    op = node.op
    if op is OpType.ADD:
        return operands[0] + operands[1]
    if op is OpType.SUB:
        return operands[0] - operands[1]
    if op is OpType.MUL:
        return operands[0] * operands[1]
    if op is OpType.DIV:
        return operands[0] / operands[1]
    if op is OpType.NEG:
        return -operands[0]
    if op is OpType.SQUARE:
        return operands[0] * operands[0]
    if op is OpType.SQRT:
        if operands[0] < 0:
            return mpmath.mpf("nan")
        return mpmath.sqrt(operands[0])
    if op is OpType.EXP:
        return mpmath.exp(operands[0])
    if op is OpType.LOG:
        if operands[0] <= 0:
            return mpmath.mpf("nan")
        return mpmath.log(operands[0])
    if op is OpType.ABS:
        return abs(operands[0])
    if op is OpType.MIN:
        return min(operands[0], operands[1])
    if op is OpType.MAX:
        return max(operands[0], operands[1])
    if op is OpType.MUX:
        return operands[1] if operands[0] >= 0 else operands[2]
    if op is OpType.OUTPUT:
        return operands[0]
    raise NoiseModelError(f"unsupported operation {op!r} in oracle evaluation")


def _simulate_sample(
    graph: DFG,
    order: List[str],
    stimulus_row: Mapping[str, np.ndarray],
    formats: Mapping[str, Any] | None,
    quantization: QuantizationMode,
    overflow: OverflowMode,
    output: str,
    steps: int,
):
    """One sample's final-step output value, exact or bit-true."""
    mpf = mpmath.mpf
    delays = graph.delays()
    delay_state = {name: mpf(0) for name in delays}
    values: Dict[str, Any] = {}
    for t in range(steps):
        for name in order:
            node = graph.node(name)
            if node.op is OpType.INPUT:
                value = mpf(float(stimulus_row[name][t]))
            elif node.op is OpType.CONST:
                value = mpf(float(node.value))
            elif node.op is OpType.DELAY:
                values[name] = delay_state[name]
                continue
            else:
                value = _apply_op_exact(node, [values[op] for op in node.inputs])
            if formats is not None:
                fmt = formats.get(name)
                if fmt is not None:
                    value = _quantize_exact(value, fmt, quantization, overflow)
            values[name] = value
        for name in delays:
            delay_state[name] = values[graph.node(name).inputs[0]]
    return values[output]


def _oracle_errors(
    graph: DFG,
    assignment: WordLengthAssignment,
    stimulus: Mapping[str, np.ndarray],
    output: str,
    steps: int,
    samples: int,
    precision_bits: int,
) -> np.ndarray:
    """Per-sample bit-true-minus-exact error, both in mpmath."""
    order = graph.topological_order()
    quantization = QuantizationMode.coerce(assignment.quantization)
    overflow = OverflowMode.coerce(assignment.overflow)
    errors = np.empty(samples)
    with mpmath.workprec(precision_bits):
        for i in range(samples):
            row = {name: stimulus[name][i] for name in stimulus}
            exact = _simulate_sample(
                graph, order, row, None, quantization, overflow, output, steps
            )
            quantized = _simulate_sample(
                graph, order, row, assignment.formats, quantization, overflow, output, steps
            )
            errors[i] = float(quantized - exact)
    return errors


def oracle_error(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int = 256,
    steps: int = 1,
    output: str | None = None,
    rng: np.random.Generator | int | None = 0,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> OracleResult:
    """Sample the fixed-point error of one output at exact precision.

    The arbitrary-precision counterpart of
    :func:`~repro.analysis.montecarlo.monte_carlo_error`: the same
    :func:`~repro.analysis.montecarlo.sampled_error` skeleton (same RNG
    stream, same stimulus), but both the reference and the quantized
    datapath run in mpmath at ``precision_bits`` working precision, with
    quantization applied in exact arithmetic.
    """
    _require_mpmath()
    if precision_bits < 64:
        raise NoiseModelError(
            f"precision_bits must be >= 64 (the oracle must out-resolve float64), "
            f"got {precision_bits}"
        )
    return sampled_error(
        graph,
        assignment,
        input_ranges,
        samples,
        steps,
        output,
        rng,
        functools.partial(_oracle_errors, samples=samples, precision_bits=precision_bits),
        OracleResult,
        precision_bits=precision_bits,
    )


def oracle_agreement(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int = 128,
    steps: int = 1,
    output: str | None = None,
    seed: int = 0,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tol: float = AGREEMENT_TOL,
) -> Dict[str, float | bool]:
    """Per-sample agreement between the float64 validator and the oracle.

    Runs both simulators on *identical* stimulus (same seed, same draw
    order) and reports the largest per-sample disagreement of the
    measured errors.  ``agreed`` is the pass/fail verdict at ``tol`` —
    the documented bound under which the float64 validator's own rounding
    is negligible for the formats being validated.
    """
    float64 = monte_carlo_error(
        graph,
        assignment,
        input_ranges,
        samples=samples,
        steps=steps,
        output=output,
        rng=seed,
    )
    oracle = oracle_error(
        graph,
        assignment,
        input_ranges,
        samples=samples,
        steps=steps,
        output=output,
        rng=seed,
        precision_bits=precision_bits,
    )
    gap = np.abs(float64.errors - oracle.errors)
    max_gap = float(gap.max())
    return {
        "samples": float(samples),
        "precision_bits": float(precision_bits),
        "max_abs_disagreement": max_gap,
        "mean_abs_disagreement": float(gap.mean()),
        "noise_power_float64": float64.noise_power,
        "noise_power_oracle": oracle.noise_power,
        "tolerance": float(tol),
        "agreed": bool(max_gap <= tol),
    }
