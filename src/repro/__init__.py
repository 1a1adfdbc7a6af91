"""Reproduction of Symbolic Noise Analysis for fixed-point datapaths.

Subpackages
-----------
``intervals``
    Interval, affine and Taylor-model arithmetic (the baselines).
``histogram``
    Histogram (discretized PDF) sums behind the on-request
    ``affine_error_pdf``.
``fixedpoint``
    Formats and quantization (scalar and vectorized).
``dfg``
    Dataflow graphs: the wire builder and the trace frontend (the ways
    in for a circuit, carried by one ``TracedCircuit`` record),
    simulators (scalar and batched), range analysis, sequential
    unrolling.
``noisemodel``
    Word-length assignments, quantization sources, transfer gains and
    the per-method datapath noise analyzer.
``analysis``
    The end-to-end :class:`~repro.analysis.pipeline.NoiseAnalysisPipeline`
    with Monte-Carlo validation and structured reports.
``optimize``
    Word-length optimization: hardware cost model, the SNR-constrained
    :class:`~repro.optimize.problem.OptimizationProblem` (the one way to
    search a circuit), and search strategies (uniform / greedy /
    decomposed).
``benchmarks``
    The benchmark circuit library and the timed, gated benchmark
    drivers (analysis, optimization, Pareto fronts and scaling) with
    their regression comparison.
"""

__version__ = "0.2.0"

__all__ = ["__version__"]
