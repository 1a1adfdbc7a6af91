"""End-to-end noise analysis: pipeline, reports and Monte-Carlo validation.

This package is the user-facing entry point of the reproduction.  It
takes a computation (symbolic expression or dataflow graph), a
word-length assignment, and produces a structured
:class:`~repro.analysis.report.AnalysisReport` comparing interval
arithmetic, affine arithmetic, Taylor models, Symbolic Noise Analysis,
probabilistic noise analysis and Monte-Carlo simulation on the same
fixed-point design — the experiment at the heart of the paper, packaged
as one call.  An arbitrary-precision oracle referees the float64
validator on request.
"""

from repro.analysis.batched import BatchedAnalyzer
from repro.analysis.degradation import DegradationEvent
from repro.analysis.incremental import IncrementalAnalyzer, IncrementalStats
from repro.analysis.montecarlo import MonteCarloResult, draw_stimulus, monte_carlo_error
from repro.analysis.oracle import OracleResult, oracle_agreement, oracle_error
from repro.analysis.pipeline import ALL_METHODS, OPTIONAL_METHODS, NoiseAnalysisPipeline
from repro.analysis.probabilistic import affine_error_pdf, confidence_noise_power
from repro.analysis.report import AnalysisReport, MethodResult
from repro.config import AnalysisConfig, OptimizeConfig

__all__ = [
    "NoiseAnalysisPipeline",
    "ALL_METHODS",
    "OPTIONAL_METHODS",
    "OracleResult",
    "oracle_error",
    "oracle_agreement",
    "draw_stimulus",
    "affine_error_pdf",
    "confidence_noise_power",
    "AnalysisReport",
    "MethodResult",
    "MonteCarloResult",
    "monte_carlo_error",
    "IncrementalAnalyzer",
    "IncrementalStats",
    "BatchedAnalyzer",
    "DegradationEvent",
    "AnalysisConfig",
    "OptimizeConfig",
]
