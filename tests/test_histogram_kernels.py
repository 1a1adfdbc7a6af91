"""Vectorized histogram kernels vs a straightforward reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.histogram.arithmetic import _spread_core
from repro.histogram.pdf import HistogramPDF


def _reference_spread(lo, hi, prob, edges):
    """The original O(bins * intervals) overlap loop, kept as an oracle."""
    n_bins = edges.size - 1
    out = np.zeros(n_bins)
    width = hi - lo
    is_point = width <= 0.0
    if np.any(is_point):
        points = lo[is_point]
        idx = np.clip(np.searchsorted(edges, points, side="right") - 1, 0, n_bins - 1)
        np.add.at(out, idx, prob[is_point])
    mask = ~is_point
    lo_w, hi_w, p_w, w_w = lo[mask], hi[mask], prob[mask], width[mask]
    for j in range(n_bins):
        a, b = edges[j], edges[j + 1]
        overlap = np.clip(np.minimum(hi_w, b) - np.maximum(lo_w, a), 0.0, None)
        out[j] += float(np.sum(p_w * overlap / w_w))
    return out


def test_spread_matches_reference_on_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        count = int(rng.integers(1, 50))
        lo_edge, hi_edge = sorted(rng.uniform(-8.0, 8.0, 2))
        if hi_edge - lo_edge < 1e-6:
            continue
        bins = int(rng.integers(1, 33))
        edges = np.linspace(lo_edge, hi_edge, bins + 1)
        lo = rng.uniform(lo_edge, hi_edge, count)
        width = rng.uniform(0.0, hi_edge - lo_edge, count) * (rng.random(count) > 0.25)
        hi = np.minimum(lo + width, hi_edge)
        prob = rng.uniform(0.0, 1.0, count)
        got = _spread_core(lo, hi, prob, edges)
        want = _reference_spread(lo, hi, prob, edges)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)
        assert got.sum() == pytest.approx(prob.sum(), rel=1e-9)
        assert (got >= 0.0).all()


def test_spread_handles_nonuniform_edges():
    edges = np.array([0.0, 0.1, 0.5, 0.6, 2.0, 2.5])
    lo = np.array([0.05, 0.55, 0.0])
    hi = np.array([2.2, 0.58, 2.5])
    prob = np.array([0.4, 0.3, 0.3])
    np.testing.assert_allclose(
        _spread_core(lo, hi, prob, edges),
        _reference_spread(lo, hi, prob, edges),
        rtol=1e-9,
    )


def test_combine_has_no_python_bin_pair_loop():
    """The acceptance criterion, enforced structurally: no for-loops."""
    import ast
    import inspect

    import repro.histogram.arithmetic as arithmetic

    for func in (arithmetic.combine_histograms, arithmetic._spread_core):
        tree = ast.parse(inspect.getsource(func))
        loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))]
        assert not loops, f"{func.__name__} contains a Python-level loop"


def test_point_mass_operand_shortcuts_are_exact():
    x = HistogramPDF.uniform(-1.0, 1.0, 16)
    c = HistogramPDF.point(0.75)
    assert x.add(c).edges.tolist() == (x.edges + 0.75).tolist()
    # point + pdf (reversed operands)
    assert c.add(x).edges.tolist() == (x.edges + 0.75).tolist()
    assert c.add(x).probs.tolist() == x.probs.tolist()


def test_monte_carlo_default_seed_is_deterministic():
    from repro.analysis.montecarlo import monte_carlo_error
    from repro.benchmarks.circuits import get_circuit
    from repro.dfg.range_analysis import infer_ranges
    from repro.noisemodel.assignment import WordLengthAssignment

    circuit = get_circuit("poly3")
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    assignment = WordLengthAssignment.uniform(circuit.graph, 10, ranges)
    first = monte_carlo_error(circuit.graph, assignment, circuit.input_ranges, samples=500)
    second = monte_carlo_error(circuit.graph, assignment, circuit.input_ranges, samples=500)
    assert first.noise_power == second.noise_power
    assert first.lower == second.lower and first.upper == second.upper
