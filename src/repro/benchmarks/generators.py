"""Size-parameterized generators for large structured circuits.

The 11 hand-written benchmark circuits top out around 50 nodes — enough
to validate the noise models, far too small to exercise decomposed
optimization.  This module grows the scenario zoo with three families
whose node counts are controlled by constructor parameters, all built
through the :func:`~repro.dfg.trace` frontend so they exercise exactly
the same path as user circuits:

* ``fir_cascade`` — a ``taps``-tap FIR filter deep-unrolled over
  ``samples`` input samples (one multiply-accumulate chain per sample;
  ~``2 * taps`` nodes per sample).
* ``iir_cascade`` — a chain of ``sections`` direct-form-I biquad
  sections unrolled over ``samples`` time steps, state carried through
  the unrolled Python loop (~``7 * sections`` nodes per step).  The
  feedback coefficients keep every section comfortably stable so range
  analysis converges without divergence.
* ``mlp_layer`` — one quantized dense layer: ``neurons`` sigmoid units
  over ``inputs`` features, outputs summed into a scalar score
  (~``2 * inputs + 6`` nodes per neuron; reuses the nonlinear EXP/DIV
  operator algebra).

Coefficients are closed-form deterministic functions of the position
(no RNG involved), so a given parameterization always produces the
identical graph — ``circuit_hash()`` is stable across processes, which
the scaling benchmarks rely on for checkpoint fingerprints.

``generate_circuit`` parses compact spec strings like
``"fir_cascade:taps=8,samples=330"`` for the CLI and the ``bench_scale``
driver.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, Dict, List

from repro.dfg.trace import TracedCircuit, trace
from repro.errors import DesignError

__all__ = [
    "GENERATORS",
    "fir_cascade",
    "iir_cascade",
    "mlp_layer",
    "generate_circuit",
    "parse_generator_spec",
]


def _positional(fn: Callable[..., object], names: List[str]) -> Callable[..., object]:
    """Give a ``*args`` function an explicit positional signature.

    ``trace`` discovers circuit inputs through ``inspect.signature``;
    attaching a synthesized ``__signature__`` lets one variadic kernel
    serve any unroll depth while every sample keeps its own named INPUT.
    """
    fn.__signature__ = inspect.Signature(  # type: ignore[attr-defined]
        [
            inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
            for name in names
        ]
    )
    return fn


def _fir_coefficients(taps: int) -> List[float]:
    """A deterministic low-pass-ish tap set with alternating signs."""
    return [
        (0.9 / (k + 2)) * (-1.0 if k % 3 == 1 else 1.0) for k in range(taps)
    ]


def fir_cascade(taps: int = 8, samples: int = 64) -> TracedCircuit:
    """A ``taps``-tap FIR deep-unrolled over ``samples`` samples."""
    if taps < 1 or samples < 1:
        raise DesignError(
            f"fir_cascade needs taps >= 1 and samples >= 1, got {taps}/{samples}"
        )
    coefficients = _fir_coefficients(taps)
    names = [f"x{t}" for t in range(samples)]

    def kernel(*xs):  # noqa: ANN002 - traced wires
        total = None
        for t in range(samples):
            acc = None
            for k, ck in enumerate(coefficients):
                if t - k < 0:
                    continue
                term = xs[t - k] * ck
                acc = term if acc is None else acc + term
            total = acc if total is None else total + acc
        # Mean over the unrolled samples: every MAC chain reaches the
        # output, so no part of the graph is noise-irrelevant.
        return total * (1.0 / samples)

    circuit = trace(
        _positional(kernel, names),
        {name: (-1.0, 1.0) for name in names},
        name=f"fir_cascade_t{taps}_n{samples}",
        output_names=("y",),
        tags=("generated", "fir", "linear"),
    )
    return circuit


def iir_cascade(sections: int = 4, samples: int = 32) -> TracedCircuit:
    """A chain of ``sections`` biquads unrolled over ``samples`` steps.

    Direct-form I with per-section feedback coefficients scaled to keep
    the cascade contractive (poles well inside the unit circle), so the
    interval fixpoint of range analysis converges on the unrolled graph.
    """
    if sections < 1 or samples < 1:
        raise DesignError(
            f"iir_cascade needs sections >= 1 and samples >= 1, got {sections}/{samples}"
        )
    names = [f"x{t}" for t in range(samples)]

    def add_term(acc, signal, coefficient):
        if signal is None:  # unrolled boundary: zero initial state
            return acc
        return acc + signal * coefficient

    def kernel(*xs):  # noqa: ANN002 - traced wires
        stage_inputs = list(xs)
        for s in range(sections):
            b0 = 0.30 + 0.25 / (s + 1)
            b1 = 0.20 * (-1.0 if s % 2 else 1.0)
            b2 = 0.10 / (s + 2)
            a1 = 0.25 / (s + 1)
            a2 = -0.10 / (s + 2)
            in_prev1 = in_prev2 = out_prev1 = out_prev2 = None
            stage_outputs = []
            for u in stage_inputs:
                y = u * b0
                y = add_term(y, in_prev1, b1)
                y = add_term(y, in_prev2, b2)
                y = add_term(y, out_prev1, a1)
                y = add_term(y, out_prev2, a2)
                in_prev2, in_prev1 = in_prev1, u
                out_prev2, out_prev1 = out_prev1, y
                stage_outputs.append(y)
            stage_inputs = stage_outputs
        return stage_inputs[-1]

    return trace(
        _positional(kernel, names),
        {name: (-1.0, 1.0) for name in names},
        name=f"iir_cascade_s{sections}_n{samples}",
        output_names=("y",),
        tags=("generated", "iir", "linear"),
    )


def mlp_layer(inputs: int = 16, neurons: int = 8) -> TracedCircuit:
    """One quantized dense layer: sigmoid units summed into a score."""
    if inputs < 1 or neurons < 1:
        raise DesignError(
            f"mlp_layer needs inputs >= 1 and neurons >= 1, got {inputs}/{neurons}"
        )
    names = [f"x{i}" for i in range(inputs)]
    scale = 1.0 / inputs

    def weight(j: int, i: int) -> float:
        return scale * math.cos(1.0 + 0.7 * j + 1.3 * i)

    def bias(j: int) -> float:
        return 0.1 * math.sin(0.5 + j)

    def kernel(*xs):  # noqa: ANN002 - traced wires
        from repro.dfg.trace import exp

        score = None
        for j in range(neurons):
            pre = None
            for i, x in enumerate(xs):
                term = x * weight(j, i)
                pre = term if pre is None else pre + term
            pre = pre + bias(j)
            unit = 1.0 / (1.0 + exp(-pre))
            score = unit if score is None else score + unit
        return score * (1.0 / neurons)

    return trace(
        _positional(kernel, names),
        {name: (-1.0, 1.0) for name in names},
        name=f"mlp_layer_i{inputs}_u{neurons}",
        output_names=("score",),
        tags=("generated", "mlp", "nonlinear"),
    )


#: Generator registry, keyed by spec-friendly names.
GENERATORS: Dict[str, Callable[..., TracedCircuit]] = {
    "fir_cascade": fir_cascade,
    "iir_cascade": iir_cascade,
    "mlp_layer": mlp_layer,
}


def parse_generator_spec(spec: str) -> tuple[str, Dict[str, int]]:
    """Split ``"name:key=int,key=int"`` into its registry name and params."""
    base, _, tail = spec.partition(":")
    base = base.strip()
    if base not in GENERATORS:
        raise DesignError(
            f"unknown circuit generator {base!r}; available: {', '.join(GENERATORS)}"
        )
    params: Dict[str, int] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise DesignError(
                    f"malformed generator parameter {item!r} in spec {spec!r} "
                    "(expected key=integer)"
                )
            try:
                params[key.strip()] = int(value)
            except ValueError as exc:
                raise DesignError(
                    f"generator parameter {key.strip()!r} in spec {spec!r} "
                    f"must be an integer, got {value!r}"
                ) from exc
    return base, params


def generate_circuit(spec: str) -> TracedCircuit:
    """Instantiate a generated circuit from a spec string.

    Examples: ``"fir_cascade"``, ``"fir_cascade:taps=8,samples=330"``,
    ``"mlp_layer:inputs=32,neurons=24"``.
    """
    base, params = parse_generator_spec(spec)
    try:
        return GENERATORS[base](**params)
    except TypeError as exc:
        raise DesignError(f"bad parameters for generator {base!r}: {exc}") from exc
