"""Vectorized Monte-Carlo validation of the analytic noise models.

The validator draws input samples, runs the exact (floating-point) and
bit-true (fixed-point) batched simulators, and summarizes the observed
output error — the "Actual Values" row the analytic bounds are judged
against.  Both simulators process the whole sample matrix as numpy
vectors (:func:`~repro.dfg.evaluate.simulate_batch` /
:func:`~repro.dfg.evaluate.simulate_fixed_point_batch`), so a hundred
thousand samples cost a handful of array passes instead of a Python loop
per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.dfg.evaluate import simulate_batch, simulate_fixed_point_batch
from repro.dfg.graph import DFG
from repro.errors import NoiseModelError
from repro.histogram.pdf import HistogramPDF
from repro.histogram.sampling import sample_histogram
from repro.intervals.interval import Interval
from repro.noisemodel.assignment import WordLengthAssignment

__all__ = [
    "MonteCarloResult",
    "draw_stimulus",
    "monte_carlo_error",
    "monte_carlo_error_sharded",
]

#: Accepted policies for stimulus PDFs whose support exceeds the
#: declared input range.
OUT_OF_RANGE_POLICIES = ("raise", "clip")


def draw_stimulus(
    graph: DFG,
    input_ranges: Mapping[str, Interval],
    samples: int,
    steps: int,
    rng: np.random.Generator,
    input_pdfs: Mapping[str, HistogramPDF] | None = None,
    out_of_range: str = "raise",
) -> Dict[str, np.ndarray]:
    """Draw the ``(samples, steps)`` stimulus matrix for every graph input.

    Inputs are drawn i.i.d. per sample and per time step — uniformly over
    their declared range, or from their entry in ``input_pdfs`` when
    given.  A PDF whose support pokes outside the declared range would
    silently exercise overflow behaviour the analytic models never saw
    (the declared ranges size the fixed-point formats), so the support is
    checked first: ``out_of_range="raise"`` (the default) rejects such a
    PDF with :class:`NoiseModelError`, ``out_of_range="clip"`` clips the
    drawn samples into the declared range instead.

    Shared by the float64 Monte-Carlo validator and the bit-true
    arbitrary-precision oracle so both see *identical* stimulus for the
    same ``rng`` state.
    """
    _check_stimulus_inputs(graph, input_ranges, input_pdfs, out_of_range)
    input_pdfs = dict(input_pdfs or {})
    stimulus: Dict[str, np.ndarray] = {}
    for name in graph.inputs():
        interval = input_ranges.get(name)
        if name in input_pdfs:
            draw = sample_histogram(input_pdfs[name], samples * steps, rng=rng)
            if interval is not None:
                draw = np.clip(draw, interval.lo, interval.hi)
        else:
            draw = rng.uniform(interval.lo, interval.hi, size=samples * steps)
        stimulus[name] = draw.reshape(samples, steps)
    return stimulus


def _check_stimulus_inputs(
    graph: DFG,
    input_ranges: Mapping[str, Interval],
    input_pdfs: Mapping[str, HistogramPDF] | None,
    out_of_range: str,
) -> None:
    """Raise :class:`NoiseModelError` for stimulus :func:`draw_stimulus` cannot draw.

    Checks the ``out_of_range`` policy, that every input without a PDF
    has a declared range, and (under ``"raise"``) that every PDF's
    support lies inside its input's declared range.
    """
    if out_of_range not in OUT_OF_RANGE_POLICIES:
        raise NoiseModelError(
            f"unknown out_of_range policy {out_of_range!r}; "
            f"expected one of {OUT_OF_RANGE_POLICIES}"
        )
    input_pdfs = input_pdfs or {}
    for name in graph.inputs():
        interval = input_ranges.get(name)
        if name not in input_pdfs:
            if interval is None:
                raise NoiseModelError(f"missing input range for {name!r}")
            continue
        if interval is None or out_of_range != "raise":
            continue
        pdf = input_pdfs[name]
        support = Interval(float(pdf.edges[0]), float(pdf.edges[-1]))
        slack = 1e-12 * max(1.0, abs(interval.lo), abs(interval.hi))
        if not (support.lo >= interval.lo - slack and support.hi <= interval.hi + slack):
            raise NoiseModelError(
                f"input PDF for {name!r} has support "
                f"[{support.lo!r}, {support.hi!r}] outside the declared "
                f"range [{interval.lo!r}, {interval.hi!r}]; samples out "
                "of range would exercise overflow behaviour the "
                "analytic models never saw — narrow the PDF, widen the "
                "range, or pass out_of_range='clip' to clip the draws"
            )


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


def monte_carlo_error(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int = 10_000,
    steps: int = 1,
    input_pdfs: Mapping[str, HistogramPDF] | None = None,
    output: str | None = None,
    rng: np.random.Generator | int | None = 0,
    out_of_range: str = "raise",
) -> MonteCarloResult:
    """Sample the true fixed-point error of one graph output.

    Inputs are drawn i.i.d. per sample and per time step — uniformly over
    their declared range, or from their entry in ``input_pdfs`` when
    given (see :func:`draw_stimulus` for the support-vs-range policy
    selected by ``out_of_range``).  Sequential graphs are simulated for
    ``steps`` samples from zero state and the error is measured at the
    final step, matching the finite-horizon convention of the unrolled
    analytic methods.

    ``rng`` defaults to the fixed seed 0 so every validator call — and
    therefore every ``BENCH_*.json`` number derived from one — is
    reproducible run-to-run; pass ``None`` explicitly for OS entropy.
    """
    if samples < 1:
        raise NoiseModelError(f"samples must be >= 1, got {samples}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    steps = int(steps) if graph.is_sequential else 1

    outputs = graph.outputs()
    if output is None:
        if not outputs:
            raise NoiseModelError(f"graph {graph.name!r} has no outputs")
        output = outputs[0]
    elif output not in outputs:
        raise NoiseModelError(f"unknown output {output!r}; graph outputs: {outputs}")

    stimulus = draw_stimulus(
        graph,
        input_ranges,
        samples,
        steps,
        rng,
        input_pdfs=input_pdfs,
        out_of_range=out_of_range,
    )

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
    errors = quantized[output] - exact[output]
    return _result_from_errors(output, samples, steps, errors)


def _result_from_errors(
    output: str, samples: int, steps: int, errors: np.ndarray
) -> MonteCarloResult:
    # The frozen dataclass would otherwise carry a mutable ndarray:
    # downstream code could corrupt cached validator results in place.
    errors.setflags(write=False)
    return MonteCarloResult(
        output=output,
        samples=samples,
        steps=steps,
        lower=float(errors.min()),
        upper=float(errors.max()),
        mean=float(errors.mean()),
        variance=float(errors.var()),
        noise_power=float(np.mean(errors * errors)),
        errors=errors,
    )


def _mc_chunk_job(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int,
    steps: int,
    input_pdfs: Mapping[str, HistogramPDF] | None,
    output: str | None,
    seed: int,
    out_of_range: str = "raise",
) -> np.ndarray:
    """One shard of a sharded Monte-Carlo run (module-level: picklable)."""
    return monte_carlo_error(
        graph,
        assignment,
        input_ranges,
        samples=samples,
        steps=steps,
        input_pdfs=input_pdfs,
        output=output,
        rng=seed,
        out_of_range=out_of_range,
    ).errors


def monte_carlo_error_sharded(
    graph: DFG,
    assignment: WordLengthAssignment,
    input_ranges: Mapping[str, Interval],
    samples: int = 10_000,
    steps: int = 1,
    input_pdfs: Mapping[str, HistogramPDF] | None = None,
    output: str | None = None,
    seed: int = 0,
    workers: int = 1,
    chunk_size: int = 4096,
    out_of_range: str = "raise",
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

    if samples < 1:
        raise NoiseModelError(f"samples must be >= 1, got {samples}")
    if chunk_size < 1:
        raise NoiseModelError(f"chunk_size must be >= 1, got {chunk_size}")
    # Bad input is the caller's error, not a pool failure: reject it here
    # before any chunk job can fail on it.
    _check_stimulus_inputs(graph, input_ranges, input_pdfs, out_of_range)
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
                input_ranges,
                size,
                steps,
                input_pdfs,
                output,
                derive_seed(seed, "mc", index),
                out_of_range,
            ),
            seed=derive_seed(seed, "mc", index),
        )
        for index, size in enumerate(sizes)
    ]
    results = JobRunner(workers=workers).run(specs, check=True)
    errors = np.concatenate([result.value for result in results])
    resolved = output if output is not None else graph.outputs()[0]
    merged_steps = int(steps) if graph.is_sequential else 1
    return _result_from_errors(resolved, samples, merged_steps, errors)
