"""Frozen configuration objects for the public analysis / optimize API.

Five PRs of organic growth left the library's entry points with three
overlapping kwarg vocabularies: :class:`~repro.analysis.pipeline.NoiseAnalysisPipeline`
took analyzer knobs directly, :class:`~repro.optimize.problem.OptimizationProblem`
took a superset with different defaults, and every benchmark driver
re-declared both as argparse flags.  This module is the single source of
truth that replaces them:

* :class:`AnalysisConfig` — how to *analyze* a circuit (word length,
  unrolling horizon, which methods, Monte-Carlo budget).
* :class:`OptimizeConfig` — how to *search* word lengths (strategy,
  SNR floor, cost table, and which engine prices candidates:
  ``incremental`` cone re-propagation, or ``batched``, which adds
  exact whole-frontier pricing on top of it).

Both are frozen dataclasses: hashable, comparable, safe to share between
a pipeline, a problem and a benchmark driver without defensive copying.
Derive variants with :meth:`AnalysisConfig.replace` /
:meth:`OptimizeConfig.replace`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Tuple

from repro.errors import NoiseModelError, OptimizationError

__all__ = [
    "AnalysisConfig",
    "OptimizeConfig",
    "ENGINES",
]


#: Candidate-evaluation engines an :class:`OptimizeConfig` can select.
ENGINES = ("incremental", "batched")


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a noise-analysis run needs besides the circuit itself.

    Attributes
    ----------
    word_length:
        Uniform word length used when no explicit assignment is given.
    horizon:
        Unrolling depth / simulated steps for sequential designs.
    methods:
        Method subset to run (``None`` = all of
        ``ia, aa, taylor, pna, montecarlo``).
    mc_samples / seed / mc_workers:
        Monte-Carlo validator budget, RNG seed, and shard workers
        (``None`` draws one stream; an integer shards the budget, and a
        dead worker pool reruns the shards serially, recorded as a
        :class:`~repro.analysis.degradation.DegradationEvent`).  The
        stimulus is uniform over the declared input ranges.
    oracle_samples / oracle_precision_bits:
        Budget of the opt-in bit-true arbitrary-precision oracle method
        (``"oracle"`` — never part of the default method set): sample
        count and mpmath working precision of the exact reference.
    """

    word_length: int = 12
    horizon: int = 8
    methods: Tuple[str, ...] | None = None
    mc_samples: int = 20_000
    seed: int | None = 0
    mc_workers: int | None = None
    oracle_samples: int = 256
    oracle_precision_bits: int = 128

    def __post_init__(self) -> None:
        if self.word_length < 2:
            raise NoiseModelError(f"word_length must be >= 2, got {self.word_length}")
        if self.horizon < 1:
            raise NoiseModelError(f"horizon must be >= 1, got {self.horizon}")
        if self.mc_samples < 1:
            raise NoiseModelError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if self.oracle_samples < 1:
            raise NoiseModelError(f"oracle_samples must be >= 1, got {self.oracle_samples}")
        if self.oracle_precision_bits < 64:
            raise NoiseModelError(
                "oracle_precision_bits must be >= 64 (the oracle must out-resolve "
                f"float64), got {self.oracle_precision_bits}"
            )
        if self.methods is not None and not isinstance(self.methods, tuple):
            # normalize lists/iterables so configs stay hashable
            object.__setattr__(self, "methods", tuple(self.methods))

    def replace(self, **changes: Any) -> "AnalysisConfig":
        """A copy with ``changes`` applied (configs are immutable)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class OptimizeConfig:
    """Everything a word-length search needs besides the circuit itself.

    Attributes
    ----------
    strategy:
        Search strategy registry name (``uniform`` / ``greedy`` /
        ``decomposed``).
    method:
        Noise-analysis method judging feasibility.
    snr_floor_db / margin_db:
        The constraint, and the analytic safety margin above it.
    confidence:
        How strongly the SNR floor must hold.  ``None`` (the default)
        keeps the legacy mean-square noise power.  ``1.0`` judges the
        worst-case peak error (any method).  A fractional value ``c``
        accepts designs whose floor holds with probability ``c`` — the
        noise measure becomes the squared ``c``-quantile of ``|error|``,
        which requires the PDF-producing method ``pna``.  It reads a
        closed-form Chernoff upper bound on the quantile (never below
        the true quantile, at most the worst case).
    cost_table:
        Named hardware cost table (see ``repro.optimize.COST_TABLES``);
        an explicit ``cost_model`` argument always wins over this.
    engine:
        Candidate-pricing engine.  Every evaluation runs on one
        incremental analyzer that re-propagates changed cones;
        ``batched`` additionally prices whole candidate batches in one
        call, one cone probe of that analyzer per move.  The engine
        also picks greedy's ranking rule: ``incremental`` ranks shaves
        by the adjoint-gain estimate of the noise added, ``batched`` by
        the exact noise each shave adds, so the two can return
        different designs (poly3, ``ia``, 60 dB, margin 1, horizon 6:
        cost 387.38 against 387.08).  Every lane a batched call prices
        equals a from-scratch analysis of that move.
    horizon / max_word_length / min_fractional_bits /
    quantization / overflow:
        Analyzer configuration and search-space box constraints.
    bins:
        Ignored: no analysis builds a histogram.  Still accepted and
        checked to be at least 1.
    mc_workers:
        Default worker count of Monte-Carlo validation.
    engine_fallback:
        Whether a broken ``batched`` engine degrades onto the
        incremental one (logged as a
        :class:`~repro.analysis.degradation.DegradationEvent` on the
        problem) instead of aborting the search.  That is all it
        governs: an incremental failure always propagates.
    partitions:
        Partition count of the ``decomposed`` strategy (``None`` sizes
        it automatically from the graph: one partition per about
        :data:`~repro.optimize.decomposed.AUTO_NODES_PER_PARTITION`
        arithmetic nodes).  Ignored by the whole-graph strategies.
    outer_iterations:
        Consensus-iteration budget of the ``decomposed`` strategy's
        ADMM-style outer loop.
    """

    strategy: str = "greedy"
    method: str = "aa"
    snr_floor_db: float = 60.0
    margin_db: float = 0.0
    confidence: float | None = None
    cost_table: str = "lut4"
    engine: str = "incremental"
    horizon: int = 8
    bins: int = 32
    max_word_length: int = 28
    min_fractional_bits: int = 0
    quantization: str = "round"
    overflow: str = "saturate"
    mc_workers: int | None = None
    engine_fallback: bool = True
    partitions: int | None = None
    outer_iterations: int = 3

    def __post_init__(self) -> None:
        if self.partitions is not None and self.partitions < 1:
            raise OptimizationError(
                f"partitions must be >= 1 or None, got {self.partitions}"
            )
        if self.outer_iterations < 1:
            raise OptimizationError(
                f"outer_iterations must be >= 1, got {self.outer_iterations}"
            )
        if self.engine not in ENGINES:
            raise OptimizationError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if math.isnan(self.snr_floor_db):
            raise OptimizationError("snr_floor_db must be a number, got nan")
        if self.margin_db < 0.0:
            raise OptimizationError(f"margin_db must be >= 0, got {self.margin_db}")
        if self.confidence is not None and not 0.0 < self.confidence <= 1.0:
            raise OptimizationError(
                f"confidence must be in (0, 1] or None, got {self.confidence!r}"
            )
        if self.min_fractional_bits < 0:
            raise OptimizationError(
                f"min_fractional_bits must be >= 0, got {self.min_fractional_bits}"
            )
        if self.horizon < 1:
            raise OptimizationError(f"horizon must be >= 1, got {self.horizon}")
        if self.bins < 1:
            raise OptimizationError(f"bins must be >= 1, got {self.bins}")
        if self.max_word_length < 2:
            raise OptimizationError(
                f"max_word_length must be >= 2, got {self.max_word_length}"
            )

    def replace(self, **changes: Any) -> "OptimizeConfig":
        """A copy with ``changes`` applied (configs are immutable)."""
        return dataclasses.replace(self, **changes)
