"""The benchmark circuit library.

Eleven small but structurally diverse fixed-point datapaths exercise
every corner of the analysis stack:

* ``quadratic`` — the paper's running example (``x**2 + x``): a repeated
  operand, where IA's dependency problem shows and SNA shines;
* ``poly3`` — a Horner-form cubic: a multiply-accumulate chain with
  quantized coefficients;
* ``fir4`` — a 4-tap FIR filter: a sequential tapped delay line without
  feedback;
* ``iir_biquad`` — a direct-form-I biquad with feedback: range analysis
  must iterate to a fixpoint and error analysis runs over an unrolled
  horizon;
* ``fft_butterfly`` — a radix-2 butterfly with a real twiddle: two
  outputs sharing sub-expressions;
* ``matmul2`` — one row of a 2x2 matrix product: wide fan-in of
  independent inputs;
* ``newton_inverse`` — two Newton-Raphson reciprocal refinement steps
  with a MUX-predicated initial guess and an ABS magnitude clean-up;
* ``rms_normalize`` — square / mean / SQRT with a MAX-clamped divisor:
  the energy-normalization pattern of AGC front-ends;
* ``sigmoid_neuron`` — the logistic activation ``1/(1 + exp(-wx - b))``:
  EXP feeding a division;
* ``log_energy`` — ``log(x^2 + y^2 + eps)``: the log-power computation
  of spectral front-ends;
* ``complex_magnitude`` — ``min(sqrt(x^2 + y^2), limit)``: a saturating
  magnitude with a sign-crossing MIN selection.

The linear designs and ``quadratic`` are wired with
:class:`~repro.dfg.builder.DFGBuilder`; the nonlinear five are written
through the trace frontend (:mod:`repro.dfg.trace`) — plain Python
functions executed over tracer wires, whose docstrings become the
circuit descriptions.  Every circuit is a
:class:`~repro.dfg.trace.TracedCircuit` carrying its graph, input ranges
and a suggested analysis output, so a pipeline can consume it directly:
``pipeline.analyze(get_circuit("fir4"))``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.dfg.builder import DFGBuilder, Wire
from repro.dfg.trace import (
    TracedCircuit,
    exp,
    fabs,
    log,
    maximum,
    minimum,
    mux,
    sqrt,
    square,
    trace,
)
from repro.errors import DesignError
from repro.intervals.interval import Interval

__all__ = ["CIRCUITS", "get_circuit", "all_circuits"]


def _quadratic() -> TracedCircuit:
    builder = DFGBuilder("quadratic")
    x = builder.input("x")
    builder.output(x.square() + x, name="out")
    return TracedCircuit(
        name="quadratic",
        graph=builder.build(),
        input_ranges={"x": Interval(-4.0, 3.0)},
        description="the paper's quadratic example x^2 + x (repeated operand)",
        tags=("combinational", "nonlinear"),
    )


def _poly3() -> TracedCircuit:
    builder = DFGBuilder("poly3")
    x = builder.input("x")
    # Horner form of 0.3 x^3 - 0.5 x^2 + 0.2 x + 0.1
    acc = ((builder.const(0.3) * x + (-0.5)) * x + 0.2) * x + 0.1
    builder.output(acc, name="y")
    return TracedCircuit(
        name="poly3",
        graph=builder.build(),
        input_ranges={"x": Interval(-1.0, 1.0)},
        description="Horner cubic polynomial evaluator with quantized coefficients",
        tags=("combinational", "nonlinear"),
    )


def _fir4() -> TracedCircuit:
    builder = DFGBuilder("fir4")
    x = builder.input("x")
    coefficients = [0.25, 0.5, 0.25, 0.125]
    taps = builder.delayed_taps(x, len(coefficients))
    products = [tap * builder.const(c) for tap, c in zip(taps, coefficients)]
    builder.output(builder.sum_of(products), name="y")
    return TracedCircuit(
        name="fir4",
        graph=builder.build(),
        input_ranges={"x": Interval(-1.0, 1.0)},
        description="4-tap FIR low-pass filter (tapped delay line, no feedback)",
        tags=("sequential", "linear"),
    )


def _iir_biquad() -> TracedCircuit:
    # Direct-form-I Butterworth-style biquad, stable low-pass:
    #   y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a2 y[n-2]   (a1 = 0)
    b0, b1, b2 = 0.2929, 0.5858, 0.2929
    a2 = 0.1716
    builder = DFGBuilder("iir_biquad")
    x = builder.input("x")
    graph = builder.graph
    graph.add_delay(name="y1")
    graph.add_delay(name="y2")
    graph.connect_delay("y2", "y1")
    x1 = x.delay()
    x2 = x1.delay()
    feedforward = builder.sum_of(
        [
            x * builder.const(b0),
            x1 * builder.const(b1),
            x2 * builder.const(b2),
        ]
    )
    y = feedforward - Wire(builder, "y2") * builder.const(a2)
    graph.connect_delay("y1", y.node_name)
    builder.output(y, name="y")
    return TracedCircuit(
        name="iir_biquad",
        graph=builder.build(),
        input_ranges={"x": Interval(-1.0, 1.0)},
        description="direct-form-I IIR biquad low-pass (feedback through two delays)",
        tags=("sequential", "feedback", "linear"),
    )


def _fft_butterfly() -> TracedCircuit:
    builder = DFGBuilder("fft_butterfly")
    a = builder.input("a")
    b = builder.input("b")
    twiddle = builder.const(0.7071067811865476)  # cos(pi/4) real twiddle
    product = b * twiddle
    builder.output(a + product, name="x0")
    builder.output(a - product, name="x1")
    return TracedCircuit(
        name="fft_butterfly",
        graph=builder.build(),
        input_ranges={"a": Interval(-1.0, 1.0), "b": Interval(-1.0, 1.0)},
        description="radix-2 FFT butterfly with real twiddle (two outputs)",
        output="x1",
        tags=("combinational", "linear", "multi-output"),
    )


def _matmul2() -> TracedCircuit:
    builder = DFGBuilder("matmul2")
    a00, a01, a10, a11 = builder.inputs(["a00", "a01", "a10", "a11"])
    b00, b01, b10, b11 = builder.inputs(["b00", "b01", "b10", "b11"])
    builder.output(a00 * b00 + a01 * b10, name="c00")
    builder.output(a00 * b01 + a01 * b11, name="c01")
    builder.output(a10 * b00 + a11 * b10, name="c10")
    builder.output(a10 * b01 + a11 * b11, name="c11")
    ranges = {name: Interval(-1.0, 1.0) for name in builder.graph.inputs()}
    return TracedCircuit(
        name="matmul2",
        graph=builder.build(),
        input_ranges=ranges,
        description="2x2 matrix multiply (8 inputs, 4 outputs; c00 analyzed)",
        output="c00",
        tags=("combinational", "nonlinear", "multi-output"),
    )


def _newton_inverse() -> TracedCircuit:
    def newton_inverse(d):
        """two Newton-Raphson reciprocal steps (MUX-predicated guess, ABS clean-up)"""
        # Initial guess predicated on the (always non-negative) operand
        # sign — exercises the sign-decided MUX path — then two
        # Newton-Raphson refinements y <- y * (2 - d * y), and an ABS
        # magnitude clean-up on the (positive) result.
        y = mux(d, 0.55, 0.8)
        y = y * (2.0 - d * y)
        y = y * (2.0 - d * y)
        return fabs(y)

    return trace(
        newton_inverse, {"d": (1.0, 2.0)}, tags=("combinational", "nonlinear", "iterative")
    )


def _rms_normalize() -> TracedCircuit:
    def rms_normalize(a, b):
        """RMS normalization with a MAX-clamped divisor (AGC pattern)"""
        mean_square = (square(a) + square(b)) * 0.5
        rms = sqrt(mean_square)
        # MAX-clamp the divisor: the clamp threshold sits inside the rms
        # range, so the selection is genuinely data-dependent.
        return a / maximum(rms, 0.7)

    # Input lows sit above hi/3 so even AA's dependency-blind square
    # enclosure stays positive going into the SQRT.
    return trace(
        rms_normalize,
        {"a": (0.5, 1.0), "b": (0.5, 1.0)},
        tags=("combinational", "nonlinear", "selection"),
    )


def _sigmoid_neuron() -> TracedCircuit:
    def sigmoid_neuron(x):
        """logistic neuron 1/(1 + exp(-(0.8 x + 0.2))) (EXP into a divide)"""
        activation = x * 0.8 + 0.2
        return 1.0 / (exp(-activation) + 1.0)

    return trace(
        sigmoid_neuron, {"x": (-1.0, 1.0)}, tags=("combinational", "nonlinear", "activation")
    )


def _log_energy() -> TracedCircuit:
    def log_energy(x, y):
        """log-power log(x^2 + y^2 + 0.25) (spectral front-end pattern)"""
        return log(square(x) + square(y) + 0.25)

    return trace(
        log_energy, {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}, tags=("combinational", "nonlinear")
    )


def _complex_magnitude() -> TracedCircuit:
    def complex_magnitude(x, y):
        """saturating complex magnitude min(sqrt(x^2 + y^2), 1.2) (SQRT + MIN)"""
        magnitude = sqrt(square(x) + square(y))
        return minimum(magnitude, 1.2)

    # Input lows sit above hi/3 so even AA's dependency-blind square
    # enclosure stays positive going into the SQRT.
    return trace(
        complex_magnitude,
        {"x": (0.4, 1.0), "y": (0.4, 1.0)},
        tags=("combinational", "nonlinear", "selection"),
    )


#: Registry of circuit builders, in canonical benchmark order.
CIRCUITS: Dict[str, Callable[[], TracedCircuit]] = {
    "quadratic": _quadratic,
    "poly3": _poly3,
    "fir4": _fir4,
    "iir_biquad": _iir_biquad,
    "fft_butterfly": _fft_butterfly,
    "matmul2": _matmul2,
    "newton_inverse": _newton_inverse,
    "rms_normalize": _rms_normalize,
    "sigmoid_neuron": _sigmoid_neuron,
    "log_energy": _log_energy,
    "complex_magnitude": _complex_magnitude,
}


def get_circuit(name: str) -> TracedCircuit:
    """Instantiate one benchmark circuit by name."""
    try:
        factory = CIRCUITS[name]
    except KeyError as exc:
        raise DesignError(
            f"unknown benchmark circuit {name!r}; available: {', '.join(CIRCUITS)}"
        ) from exc
    return factory()


def all_circuits() -> List[TracedCircuit]:
    """Instantiate every benchmark circuit, in registry order."""
    return [factory() for factory in CIRCUITS.values()]
