"""The end-to-end noise-analysis pipeline.

:class:`NoiseAnalysisPipeline` wires the whole paper experiment into one
call::

    pipeline = NoiseAnalysisPipeline(AnalysisConfig(word_length=12))
    report = pipeline.analyze(circuit_or_dfg, input_ranges={"x": (-4, 3)})

which runs, in order:

1. circuit unpacking (a :class:`~repro.dfg.trace.TracedCircuit` brings
   its graph, input ranges, name and designated output; a bare
   :class:`~repro.dfg.graph.DFG` needs ``input_ranges``);
2. interval range analysis (integer-bit sizing, fixpoint-iterated for
   feedback designs);
3. word-length assignment (a caller-provided
   :class:`~repro.noisemodel.assignment.WordLengthAssignment` or the
   paper's uniform baseline), with a coverage pass that widens any format
   whose representable range would clip its node's value range;
4. per-method error propagation (``ia`` / ``aa`` / ``taylor`` / ``pna``
   via :class:`~repro.noisemodel.analyzer.DatapathNoiseAnalyzer`),
   the vectorized ``montecarlo`` validator, and/or the opt-in
   arbitrary-precision ``oracle`` referee;
5. report assembly: per-node ranges and formats, per-method error
   bounds / moments / SNR / runtime, and Monte-Carlo enclosure verdicts.

The pipeline analyzes; it does not search.  Word-length optimization
goes through :class:`~repro.optimize.problem.OptimizationProblem`.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping

from repro.analysis.degradation import DegradationEvent
from repro.analysis.montecarlo import MonteCarloResult, monte_carlo_validate, resolve_output
from repro.analysis.report import AnalysisReport, MethodResult
from repro.config import AnalysisConfig
from repro.dfg.graph import DFG
from repro.dfg.range_analysis import infer_ranges
from repro.dfg.trace import TracedCircuit, unpack_circuit
from repro.errors import NoiseModelError
from repro.intervals.interval import Interval, RangeLike, uniform_power
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage
from repro.utils.mathutils import snr_db

__all__ = ["NoiseAnalysisPipeline", "ALL_METHODS", "OPTIONAL_METHODS"]

#: Every method the pipeline runs by default, in canonical order.
ALL_METHODS = ANALYSIS_METHODS + ("montecarlo",)

#: Methods accepted by name but never part of the default sweep: the
#: arbitrary-precision oracle walks a scalar mpmath loop per sample, so
#: it must be asked for explicitly.
OPTIONAL_METHODS = ("oracle",)

#: Absolute slack when judging an analytic bound against the sampled
#: ``montecarlo`` errors.
ENCLOSURE_TOL = 1e-12


def _sampled_row(
    method: str, result: MonteCarloResult, signal_power: float, runtime_s: float
) -> MethodResult:
    """The report row of a ``montecarlo`` or ``oracle`` sample."""
    extra = {"samples": float(result.samples), "steps": float(result.steps)}
    if method == "oracle":
        extra["precision_bits"] = float(result.precision_bits)
    return MethodResult(
        method=method,
        lower=result.lower,
        upper=result.upper,
        mean=result.mean,
        variance=result.variance,
        noise_power=result.noise_power,
        snr_db=snr_db(signal_power, result.noise_power),
        runtime_s=runtime_s,
        extra=extra,
    )


class NoiseAnalysisPipeline:
    """One-call orchestration of range analysis, noise models and MC.

    Parameters
    ----------
    config:
        An :class:`~repro.config.AnalysisConfig` carrying word length,
        unrolling horizon, the default method subset, and the
        Monte-Carlo budget/seed/workers (default: ``AnalysisConfig()``).
    """

    def __init__(
        self,
        config: AnalysisConfig | None = None,
    ) -> None:
        if config is None:
            config = AnalysisConfig()
        elif not isinstance(config, AnalysisConfig):
            raise TypeError(
                f"config must be an AnalysisConfig, got {type(config).__name__}"
            )
        #: The resolved :class:`AnalysisConfig` this pipeline runs under.
        self.config = config
        #: :class:`~repro.analysis.degradation.DegradationEvent` log —
        #: appended to (never cleared) whenever a sharded Monte-Carlo
        #: validation had to rerun its shards serially in-process.
        self.degradation_log: list[DegradationEvent] = []

    # ------------------------------------------------------------------ #
    def analyze(
        self,
        circuit: TracedCircuit | DFG,
        assignment: WordLengthAssignment | None = None,
        method: str | Iterable[str] | None = None,
        *,
        input_ranges: Mapping[str, RangeLike] | None = None,
        output: str | None = None,
        name: str | None = None,
    ) -> AnalysisReport:
        """Analyze one circuit and return a full :class:`AnalysisReport`.

        Parameters
        ----------
        circuit:
            A :class:`~repro.dfg.trace.TracedCircuit` (what ``trace`` and
            the benchmark library return) or a bare :class:`DFG`.
        assignment:
            Word-length assignment; defaults to the uniform baseline at
            the pipeline's ``word_length``.  A caller's assignment is
            reported with ``word_length=None``: its per-node formats are
            the record.
        method:
            One method name, an iterable of names, or ``None`` for all of
            ``ia, aa, taylor, pna, montecarlo``.  The
            arbitrary-precision ``oracle`` never runs by default; request
            it by name.
        input_ranges:
            Range per input (``Interval`` or ``(lo, hi)``).  Required
            unless ``circuit`` carries its own.  The analytic methods
            enclose these ranges, and the ``montecarlo`` and ``oracle``
            stimulus is drawn uniformly over them.
        output:
            Which output to analyze for multi-output designs (default:
            the circuit's designated output, else the graph's first).
        name:
            Report name (default: the circuit's name).
        """
        graph, ranges_in, circuit_name, circuit_output = unpack_circuit(
            circuit, input_ranges, NoiseModelError
        )
        if output is None:
            output = circuit_output
        if method is None and self.config.methods is not None:
            method = self.config.methods
        methods = self._coerce_methods(method)

        range_result = infer_ranges(graph, ranges_in)
        if not range_result.converged:
            raise NoiseModelError(
                f"range analysis of {graph.name!r} did not converge after "
                f"{range_result.iterations} iterations (unstable feedback?)"
            )
        ranges = range_result.ranges

        word_length = self.config.word_length if assignment is None else None
        if assignment is None:
            assignment = WordLengthAssignment.uniform(graph, word_length, ranges)
        assignment = ensure_range_coverage(assignment, ranges)

        out_node = resolve_output(graph, output)
        signal_power = uniform_power(ranges[out_node])

        analyzer: DatapathNoiseAnalyzer | None = None
        results: Dict[str, MethodResult] = {}
        mc_result: MonteCarloResult | None = None

        for method_name in methods:
            started = time.perf_counter()
            if method_name in ("montecarlo", "oracle"):
                sampled = self._sample(method_name, graph, assignment, ranges_in, out_node)
                if method_name == "montecarlo":
                    mc_result = sampled
                results[method_name] = _sampled_row(
                    method_name, sampled, signal_power, time.perf_counter() - started
                )
            else:
                if analyzer is None:
                    analyzer = DatapathNoiseAnalyzer(
                        graph, assignment, ranges_in, horizon=self.config.horizon
                    )
                    started = time.perf_counter()
                report = analyzer.analyze(method_name, output=output)
                elapsed = time.perf_counter() - started
                results[method_name] = MethodResult(
                    method=method_name,
                    lower=report.bounds.lo,
                    upper=report.bounds.hi,
                    mean=report.mean,
                    variance=report.variance,
                    noise_power=report.noise_power,
                    snr_db=report.snr_db(signal_power),
                    runtime_s=elapsed,
                )

        enclosure: Dict[str, bool] = {}
        if mc_result is not None:
            for method_name, result in results.items():
                if method_name in ("montecarlo", "oracle"):
                    # both are empirical samplers, not enclosure claims
                    continue
                enclosure[method_name] = mc_result.enclosed_by(result.bounds, tol=ENCLOSURE_TOL)

        return AnalysisReport(
            circuit=name or circuit_name,
            output=out_node,
            node_count=len(graph),
            op_counts={op.value: count for op, count in graph.op_histogram().items()},
            sequential=graph.is_sequential,
            horizon=self.config.horizon if graph.is_sequential else 1,
            word_length=word_length,
            total_bits=assignment.total_bits(),
            ranges={n: [iv.lo, iv.hi] for n, iv in ranges.items()},
            integer_bits=range_result.integer_bits(),
            formats={n: fmt.describe() for n, fmt in assignment.formats.items()},
            signal_power=signal_power,
            results=results,
            enclosure=enclosure,
        )

    def _sample(
        self,
        method: str,
        graph: DFG,
        assignment: WordLengthAssignment,
        input_ranges: Mapping[str, Interval],
        output: str,
    ) -> MonteCarloResult:
        """Run the ``montecarlo`` validator or the ``oracle`` on the declared ranges."""
        config = self.config
        if method == "montecarlo":
            return monte_carlo_validate(
                graph,
                assignment,
                input_ranges,
                samples=config.mc_samples,
                steps=config.horizon,
                output=output,
                seed=config.seed,
                workers=config.mc_workers,
                degradations=self.degradation_log,
            )
        # late import: keeps mpmath off the hot path of every default
        # analysis run
        from repro.analysis.oracle import oracle_error

        return oracle_error(
            graph,
            assignment,
            input_ranges,
            samples=config.oracle_samples,
            steps=config.horizon,
            output=output,
            rng=config.seed,
            precision_bits=config.oracle_precision_bits,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce_methods(method: str | Iterable[str] | None) -> list[str]:
        if method is None:
            names = list(ALL_METHODS)
        elif isinstance(method, str):
            names = [method.lower()]
        else:
            names = [str(m).lower() for m in method]
        known = ALL_METHODS + OPTIONAL_METHODS
        unknown = [m for m in names if m not in known]
        if unknown:
            raise NoiseModelError(
                f"unknown analysis method(s) {unknown}; choose from {known}"
            )
        if not names:
            raise NoiseModelError("no analysis methods requested")
        return names
