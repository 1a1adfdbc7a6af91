"""Benchmark circuit library and the timed, gated benchmark drivers.

The circuits give every analysis method a shared workload matrix — from
the paper's quadratic example to a feedback biquad.
:mod:`repro.benchmarks.bench_analysis` turns them into a timed,
Monte-Carlo-validated JSON baseline (``BENCH_analysis.json``);
:mod:`repro.benchmarks.bench_optimize` runs the word-length optimizers
over the same matrix (``BENCH_optimize.json``, the uniform-vs-optimized
headline experiment); and :mod:`repro.benchmarks.compare_bench` diffs
two ``bench_analysis`` reports for the CI regression gate.
"""

from repro.benchmarks.circuits import CIRCUITS, all_circuits, get_circuit

__all__ = ["CIRCUITS", "get_circuit", "all_circuits"]
