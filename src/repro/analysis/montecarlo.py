"""Vectorized Monte-Carlo validation of the analytic noise models.

The validator draws input samples, runs the exact (floating-point) and
bit-true (fixed-point) batched simulators, and summarizes the observed
output error — the "Actual Values" row the analytic bounds are judged
against.  Both simulators process the whole sample matrix as numpy
vectors (:func:`~repro.dfg.evaluate.simulate_batch` /
:func:`~repro.dfg.evaluate.simulate_fixed_point_batch`), so a hundred
thousand samples cost a handful of array passes instead of a Python loop
per sample.

Every input is drawn uniformly over its declared range, the range that
sized the fixed-point formats.  :func:`sampled_error` is the skeleton
shared with the arbitrary-precision oracle; :func:`monte_carlo_validate`
is the one place that picks the single-stream or the sharded validator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np

from repro.analysis.degradation import DegradationEvent
from repro.dfg.evaluate import simulate_batch, simulate_fixed_point_batch
from repro.dfg.graph import DFG
from repro.errors import JobError, NoiseModelError
from repro.intervals.interval import Interval
from repro.noisemodel.assignment import WordLengthAssignment

__all__ = [
    "MonteCarloResult",
    "draw_stimulus",
    "sampled_error",
    "monte_carlo_error",
    "monte_carlo_error_sharded",
    "monte_carlo_validate",
    "resolve_output",
]

#: ``simulate(graph, assignment, stimulus, output, steps)`` -> per-sample
#: fixed-point error of ``output`` at the final step.
Simulator = Callable[[DFG, WordLengthAssignment, Dict[str, np.ndarray], str, int], np.ndarray]


def draw_stimulus(
    graph: DFG,
    input_ranges: Mapping[str, Interval],
    samples: int,
    steps: int,
    rng: np.random.Generator,
) -> Dict[str, np.ndarray]:
    """Draw the ``(samples, steps)`` stimulus matrix for every graph input.

    Inputs are drawn i.i.d. per sample and per time step, uniformly over
    their declared range, in :meth:`DFG.inputs` order.  Shared by the
    float64 Monte-Carlo validator and the bit-true arbitrary-precision
    oracle so both see *identical* stimulus for the same ``rng`` state.
    """
    _check_stimulus_inputs(graph, input_ranges)
    stimulus: Dict[str, np.ndarray] = {}
    for name in graph.inputs():
        interval = input_ranges[name]
        draw = rng.uniform(interval.lo, interval.hi, size=samples * steps)
        stimulus[name] = draw.reshape(samples, steps)
    return stimulus


def _check_stimulus_inputs(graph: DFG, input_ranges: Mapping[str, Interval]) -> None:
    """Raise :class:`NoiseModelError` when an input has no declared range."""
    for name in graph.inputs():
        if input_ranges.get(name) is None:
            raise NoiseModelError(f"missing input range for {name!r}")


def resolve_output(graph: DFG, output: str | None) -> str:
    """``output``, or the graph's first output when ``None``; raises for an unknown one."""
    outputs = graph.outputs()
    if output is None:
        if not outputs:
            raise NoiseModelError(f"graph {graph.name!r} has no outputs")
        return outputs[0]
    if output not in outputs:
        raise NoiseModelError(f"unknown output {output!r}; graph outputs: {outputs}")
    return output


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise NoiseModelError(f"samples must be >= 1, got {samples}")


@dataclass(frozen=True)
class MonteCarloResult:
    """Sampled fixed-point error statistics for one output."""

    output: str
    samples: int
    steps: int
    lower: float
    upper: float
    mean: float
    variance: float
    noise_power: float
    errors: np.ndarray

    @property
    def bounds(self) -> Interval:
        """Observed ``[min, max]`` error."""
        return Interval(self.lower, self.upper)

    def enclosed_by(self, bounds: Interval, tol: float = 0.0) -> bool:
        """True when every sampled error lies inside ``bounds``."""
        return bounds.lo - tol <= self.lower and self.upper <= bounds.hi + tol

    @classmethod
    def of_errors(
        cls, output: str, samples: int, steps: int, errors: np.ndarray, **extra
    ) -> "MonteCarloResult":
        """Summarize per-sample ``errors``; ``extra`` fills a subclass's fields."""
        # The frozen dataclass would otherwise carry a mutable ndarray:
        # downstream code could corrupt cached validator results in place.
        errors.setflags(write=False)
        return cls(
            output=output,
            samples=samples,
            steps=steps,
            lower=float(errors.min()),
            upper=float(errors.max()),
            mean=float(errors.mean()),
            variance=float(errors.var()),
            noise_power=float(np.mean(errors * errors)),
            errors=errors,
            **extra,
        )


def sampled_error(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int,
    steps: int,
    output: str | None,
    rng: np.random.Generator | int | None,
    simulate: Simulator,
    result_type: type[MonteCarloResult] = MonteCarloResult,
    **fields,
) -> MonteCarloResult:
    """The sample, simulate, summarize skeleton of every error sampler.

    Checks the sample count, resolves ``output`` (the first output by
    default), draws the stimulus from ``rng`` (see :func:`draw_stimulus`)
    and summarizes the per-sample errors ``simulate`` returns into a
    ``result_type`` (default :class:`MonteCarloResult`; ``fields`` fill a
    subclass's own fields).

    Sequential graphs run ``steps`` samples from zero state and the error
    is measured at the final step, matching the finite-horizon convention
    of the unrolled analytic methods; combinational graphs run one step.
    """
    _check_samples(samples)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    steps = int(steps) if graph.is_sequential else 1
    output = resolve_output(graph, output)
    stimulus = draw_stimulus(graph, input_ranges, samples, steps, rng)
    errors = simulate(graph, assignment, stimulus, output, steps)
    return result_type.of_errors(output, samples, steps, errors, **fields)


def _float64_errors(
    graph: DFG,
    assignment: WordLengthAssignment,
    stimulus: Dict[str, np.ndarray],
    output: str,
    steps: int,
) -> np.ndarray:
    exact = simulate_batch(graph, stimulus, steps=steps, record=[output])
    quantized = simulate_fixed_point_batch(
        graph,
        stimulus,
        assignment.formats,
        assignment.quantization,
        assignment.overflow,
        steps=steps,
        record=[output],
    )
    return quantized[output] - exact[output]


def monte_carlo_error(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int = 10_000,
    steps: int = 1,
    output: str | None = None,
    rng: np.random.Generator | int | None = 0,
) -> MonteCarloResult:
    """Sample the true fixed-point error of one graph output in float64.

    :func:`sampled_error` over the batched float64 simulators.  ``rng``
    defaults to the fixed seed 0 so every validator call — and therefore
    every ``BENCH_*.json`` number derived from one — is reproducible
    run-to-run; pass ``None`` explicitly for OS entropy.
    """
    return sampled_error(
        graph, assignment, input_ranges, samples, steps, output, rng, _float64_errors
    )


def _mc_chunk_job(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int,
    steps: int,
    output: str,
    seed: int,
) -> np.ndarray:
    """One shard of a sharded Monte-Carlo run (module-level: picklable)."""
    return monte_carlo_error(
        graph,
        assignment,
        input_ranges,
        samples=samples,
        steps=steps,
        output=output,
        rng=seed,
    ).errors


def monte_carlo_error_sharded(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int = 10_000,
    steps: int = 1,
    output: str | None = None,
    seed: int = 0,
    workers: int = 1,
    chunk_size: int = 4096,
) -> MonteCarloResult:
    """Sharded :func:`monte_carlo_error` with worker-count-independent draws.

    The sample budget is cut into fixed-size chunks — ``chunk_size``
    samples each, regardless of ``workers`` — and every chunk draws from
    its own RNG stream seeded by
    :func:`~repro.jobs.spec.derive_seed`\\ ``(seed, "mc", index)``.
    Chunk error vectors are concatenated in chunk order before the
    statistics are computed, so the returned result is **bit-identical
    for any worker count** (including the serial fallback).  The numbers
    differ from a single-stream :func:`monte_carlo_error` call of the
    same seed — the stream topology is part of the contract — but are
    just as reproducible.
    """
    # Local import: keeps repro.jobs optional for plain validator users.
    from repro.jobs import JobRunner, JobSpec, derive_seed

    _check_samples(samples)
    if chunk_size < 1:
        raise NoiseModelError(f"chunk_size must be >= 1, got {chunk_size}")
    # Bad input is the caller's error, not a pool failure: reject it here
    # before any chunk job can fail on it.
    _check_stimulus_inputs(graph, input_ranges)
    output = resolve_output(graph, output)
    sizes = [chunk_size] * (samples // chunk_size)
    if samples % chunk_size:
        sizes.append(samples % chunk_size)
    specs = [
        JobSpec(
            key=f"mc/{index}",
            fn=_mc_chunk_job,
            args=(
                graph,
                assignment,
                dict(input_ranges),  # a read-only mapping does not pickle
                size,
                steps,
                output,
                derive_seed(seed, "mc", index),
            ),
            seed=derive_seed(seed, "mc", index),
        )
        for index, size in enumerate(sizes)
    ]
    results = JobRunner(workers=workers).run(specs, check=True)
    errors = np.concatenate([result.value for result in results])
    merged_steps = int(steps) if graph.is_sequential else 1
    return MonteCarloResult.of_errors(output, samples, merged_steps, errors)


def monte_carlo_validate(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    *,
    samples: int,
    steps: int,
    output: str | None,
    seed: int | None,
    workers: int | None,
    degradations: list,
) -> MonteCarloResult:
    """Validate a design on the stream topology ``workers`` selects.

    ``workers=None`` runs the single-stream :func:`monte_carlo_error`
    from ``seed`` (``None`` = OS entropy).  An integer runs
    :func:`monte_carlo_error_sharded` on that many workers; ``seed=None``
    then draws one OS-entropy base seed for the chunk seeds instead of
    dropping the workers.  A sharded run whose pool fails
    (:class:`~repro.errors.JobError`) reruns its shards serially
    in-process and appends a
    :class:`~repro.analysis.degradation.DegradationEvent` to
    ``degradations``; per-chunk seeds derive from the chunk index, so the
    rerun reproduces the sharded numbers.

    Both validators are called through this module with ``samples=`` as
    a keyword, so a wrapper installed on the module sees every call.
    """
    if workers is None:
        return monte_carlo_error(
            graph,
            assignment,
            input_ranges,
            samples=samples,
            steps=steps,
            output=output,
            rng=seed,
        )
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
    try:
        return monte_carlo_error_sharded(
            graph,
            assignment,
            input_ranges,
            samples=samples,
            steps=steps,
            output=output,
            seed=seed,
            workers=workers,
        )
    except JobError as exc:
        degradations.append(
            DegradationEvent(
                stage="montecarlo-sharded",
                from_engine=f"sharded[{workers}]",
                to_engine="sharded[1]",
                reason=f"{type(exc).__name__}: {exc}",
            )
        )
        return monte_carlo_error_sharded(
            graph,
            assignment,
            input_ranges,
            samples=samples,
            steps=steps,
            output=output,
            seed=seed,
            workers=1,
        )
