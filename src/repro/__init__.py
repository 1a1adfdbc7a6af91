"""Reproduction of Symbolic Noise Analysis for fixed-point datapaths.

Subpackages
-----------
``intervals``
    Interval, affine and Taylor-model arithmetic (the baselines).
``histogram``
    Histogram (discretized PDF) sums and sampling — PNA's reported error
    PDF and the Monte-Carlo stimulus.
``symbols``
    Symbolic expressions lowered to dataflow graphs.
``fixedpoint``
    Formats and quantization (scalar and vectorized).
``dfg``
    Dataflow graphs: builders, simulators (scalar and batched),
    range analysis, sequential unrolling.
``noisemodel``
    Word-length assignments, quantization sources, transfer gains and
    the per-method datapath noise analyzer.
``analysis``
    The end-to-end :class:`~repro.analysis.pipeline.NoiseAnalysisPipeline`
    with Monte-Carlo validation and structured reports.
``optimize``
    Word-length optimization: hardware cost model, SNR-constrained
    problem, and search strategies (uniform / greedy / decomposed).
``benchmarks``
    The benchmark circuit library and the timed, gated benchmark
    drivers (analysis and optimization).
"""

__version__ = "0.2.0"

__all__ = ["__version__"]
