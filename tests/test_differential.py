"""Property-based differential suite: analytic models vs Monte-Carlo truth.

A seeded random-DFG generator (shared fixture in ``conftest.py``, all
supported operators, bounded depth) produces hundreds of circuits; for
each one, every analytic method is compared against the bit-true
Monte-Carlo simulator:

* **Enclosure** — the IA / AA / Taylor / PNA error bounds must contain
  every sampled fixed-point error.
  This is the soundness property the whole reproduction rests on.
* **Hierarchy** — on linear datapaths (where affine forms are exact and
  interval arithmetic only loses correlation) the bounds nest:
  ``IA ⊇ AA ⊇ observed MC range``.  (Nonlinear operators break the
  strict IA ⊇ AA ordering by construction: AA's Chebyshev linearization
  symbols may exceed the exact interval image, so the general suite
  asserts each method against MC instead.)
* **PNA power** — the PNA noise power must not under-predict the
  sampled noise power beyond Monte-Carlo confidence (4 standard errors
  of the mean square), a modeling factor, and one output-LSB² of
  absolute slack (signals that land exactly on the quantization grid
  inject no error while the uniform model charges ``q^2/12`` — the
  classic model floor).

Everything is a pure function of the fixed seeds, so the suite is
deterministic run-to-run.
"""

from __future__ import annotations

import math

import numpy as np

from conftest import GENERATOR_WORD_LENGTH, build_random_circuit
from repro.analysis.montecarlo import monte_carlo_error
from repro.dfg.node import OpType
from repro.dfg.range_analysis import infer_ranges
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage

#: Number of generated graphs the main properties sweep.
GRAPH_COUNT = 200

MC_SAMPLES = 3000
BINS = 16

#: Modeling factor of the PNA-vs-MC power comparison.
POWER_FACTOR = 8.0

_RESULT_CACHE: dict = {}


def _analyze_seed(seed: int) -> dict:
    """Analyze one generated circuit with every method plus Monte-Carlo."""
    cached = _RESULT_CACHE.get(seed)
    if cached is not None:
        return cached
    circuit = build_random_circuit(seed)
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    assignment = ensure_range_coverage(
        WordLengthAssignment.uniform(circuit.graph, GENERATOR_WORD_LENGTH, ranges), ranges
    )
    analyzer = DatapathNoiseAnalyzer(circuit.graph, assignment, circuit.input_ranges, bins=BINS)
    reports = {
        method: analyzer.analyze(method, contributions=False) for method in ANALYSIS_METHODS
    }
    mc = monte_carlo_error(
        circuit.graph, assignment, circuit.input_ranges, samples=MC_SAMPLES, rng=seed
    )
    out_source = circuit.graph.node(circuit.graph.outputs()[0]).inputs[0]
    result = {
        "circuit": circuit,
        "reports": reports,
        "mc": mc,
        "lsb_power": assignment.formats[out_source].step ** 2,
    }
    _RESULT_CACHE[seed] = result
    return result


def _enclosure_tol(bounds) -> float:
    return 1e-9 * max(1.0, abs(bounds.lo), abs(bounds.hi))


def test_every_method_encloses_monte_carlo_errors():
    """Every method's bounds contain all sampled errors."""
    for seed in range(GRAPH_COUNT):
        data = _analyze_seed(seed)
        mc = data["mc"]
        for method, report in data["reports"].items():
            tol = _enclosure_tol(report.bounds)
            assert report.bounds.lo - tol <= mc.lower and mc.upper <= report.bounds.hi + tol, (
                f"seed {seed}: {method} bounds [{report.bounds.lo}, {report.bounds.hi}] "
                f"do not enclose MC [{mc.lower}, {mc.upper}]"
            )


def test_pna_noise_power_within_monte_carlo_confidence():
    """PNA power never under-predicts sampled power, up to confidence + model floor."""
    for seed in range(GRAPH_COUNT):
        data = _analyze_seed(seed)
        mc = data["mc"]
        pna_power = data["reports"]["pna"].noise_power
        stderr = float(np.std(mc.errors**2) / math.sqrt(mc.errors.size))
        slack = data["lsb_power"]
        lower_ref = max(mc.noise_power - 4.0 * stderr, 0.0)
        assert pna_power >= lower_ref / POWER_FACTOR - slack, (
            f"seed {seed}: PNA power {pna_power} under-predicts MC "
            f"{mc.noise_power} (stderr {stderr})"
        )


def test_linear_graphs_nest_ia_superset_aa_superset_mc():
    """On linear datapaths the full hierarchy IA ⊇ AA ⊇ MC holds."""
    for seed in range(40):
        circuit = build_random_circuit(seed, ops=("add", "sub", "neg"))
        ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
        assignment = ensure_range_coverage(
            WordLengthAssignment.uniform(circuit.graph, GENERATOR_WORD_LENGTH, ranges),
            ranges,
        )
        analyzer = DatapathNoiseAnalyzer(
            circuit.graph, assignment, circuit.input_ranges, bins=BINS
        )
        ia = analyzer.analyze("ia", contributions=False).bounds
        aa = analyzer.analyze("aa", contributions=False).bounds
        mc = monte_carlo_error(
            circuit.graph, assignment, circuit.input_ranges, samples=MC_SAMPLES, rng=seed
        )
        tol = _enclosure_tol(ia)
        assert ia.lo - tol <= aa.lo and aa.hi <= ia.hi + tol, (
            f"seed {seed}: IA {ia} does not contain AA {aa} on a linear graph"
        )
        assert aa.lo - tol <= mc.lower and mc.upper <= aa.hi + tol, (
            f"seed {seed}: AA {aa} does not enclose MC [{mc.lower}, {mc.upper}]"
        )


def test_generator_is_deterministic():
    """The same seed always yields the same graph (ops and wiring)."""
    for seed in (0, 7, 42):
        first = build_random_circuit(seed, validate=False)
        second = build_random_circuit(seed, validate=False)
        assert [(n.name, n.op, n.inputs, n.value) for n in first.graph] == [
            (n.name, n.op, n.inputs, n.value) for n in second.graph
        ]
        assert first.input_ranges == second.input_ranges


def test_generator_exercises_every_operator():
    """Across the sweep, every analyzable OpType actually appears."""
    seen = set()
    for seed in range(GRAPH_COUNT):
        circuit = _analyze_seed(seed)["circuit"]
        seen.update(node.op for node in circuit.graph)
    expected = {
        OpType.ADD,
        OpType.SUB,
        OpType.MUL,
        OpType.DIV,
        OpType.NEG,
        OpType.SQUARE,
        OpType.SQRT,
        OpType.EXP,
        OpType.LOG,
        OpType.ABS,
        OpType.MIN,
        OpType.MAX,
        OpType.MUX,
    }
    assert expected <= seen, f"generator never produced: {expected - seen}"
