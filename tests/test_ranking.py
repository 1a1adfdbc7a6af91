"""Greedy's incremental shave ranking and the problem state it relies on.

The descent keeps every node's shave price across accepted moves and
re-prices only the shaves a move can change.  These tests hold it to a
from-scratch ranking at every step, pin the greedy results of a
generated circuit, and check the guards around the cache: graph
mutations are refused and repricing does not depend on the hash seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.config import OptimizeConfig
from repro.errors import OptimizationError
from repro.optimize import OptimizationProblem
from repro.optimize.strategies import GreedyBitStealingOptimizer


def reference_shaves(problem, current, blocked):
    """From-scratch ``(node, new_frac, saved)`` of every unblocked saving shave."""
    shaves = []
    for node in problem.tunable:
        if node in blocked:
            continue
        fmt = current.assignment.formats.get(node)
        if fmt is None or fmt.fractional_bits <= problem.min_fractional_bits:
            continue
        new_frac = fmt.fractional_bits - 1
        shaved = current.assignment.with_fractional_bits(node, new_frac)
        saved = -problem.cost_model.reprice(
            problem.graph,
            current.assignment,
            shaved,
            problem.cost_model.affected_by(problem.graph, node),
        )
        if saved > 0.0:
            shaves.append((node, new_frac, saved))
    return shaves


def reference_best(problem, current, blocked):
    """The scalar ranking recomputed from scratch: best saved / predicted noise."""
    best = None
    best_score = 0.0
    for node, new_frac, saved in reference_shaves(problem, current, blocked):
        added = problem.predicted_noise_increase(current.assignment, node, new_frac)
        score = saved / max(added, 1e-30)
        if best is None or score > best_score:
            best, best_score = (node, new_frac), score
    return best


def reference_best_batched(problem, current, blocked):
    """The batched ranking recomputed from scratch (blocks rejected shaves)."""
    shaves = reference_shaves(problem, current, blocked)
    if not shaves:
        return None
    noise = problem.price_moves(current.assignment, [(n, f) for n, f, _ in shaves])
    threshold = problem.snr_floor_db + problem.margin_db
    best = None
    best_score = 0.0
    for (node, new_frac, saved), noise_power in zip(shaves, noise):
        if problem._snr_db(float(noise_power)) < threshold:
            blocked.add(node)
            continue
        added = max(float(noise_power) - current.noise_power, 0.0)
        score = saved / max(added, 1e-30)
        if best is None or score > best_score:
            best, best_score = (node, new_frac), score
    return best


class CheckedGreedy(GreedyBitStealingOptimizer):
    """Greedy that checks every ranking step against the from-scratch one."""

    def __init__(self) -> None:
        super().__init__()
        self.steps = 0

    def _best_candidate(self, current, blocked, ranking):
        expected = reference_best(ranking.problem, current, blocked)
        chosen = super()._best_candidate(current, blocked, ranking)
        assert list(ranking.shaves(blocked)) == reference_shaves(
            ranking.problem, current, blocked
        )
        assert chosen == expected
        self.steps += 1
        return chosen

    def _best_candidate_batched(self, problem, current, blocked, ranking):
        expected_blocked = set(blocked)
        expected = reference_best_batched(problem, current, expected_blocked)
        chosen = super()._best_candidate_batched(problem, current, blocked, ranking)
        assert chosen == expected
        assert blocked == expected_blocked
        self.steps += 1
        return chosen


def make_problem(circuit, engine, floor=55.0, method="ia", **options):
    config = OptimizeConfig(
        snr_floor_db=floor,
        method=method,
        engine=engine,
        horizon=4,
        bins=8,
        margin_db=0.0,
        **options,
    )
    return OptimizationProblem.from_circuit(circuit, floor, config=config)


@pytest.mark.parametrize("engine", ["incremental", "batched"])
@pytest.mark.parametrize("circuit_name", list(CIRCUITS))
def test_ranking_matches_from_scratch_on_library(circuit_name, engine):
    optimizer = CheckedGreedy()
    result = optimizer.optimize(make_problem(get_circuit(circuit_name), engine))
    assert result.feasible
    assert optimizer.steps > 0


@pytest.mark.parametrize("engine", ["incremental", "batched"])
def test_ranking_matches_from_scratch_on_random_graphs(engine, random_circuit_factory):
    steps = 0
    for seed in range(20):
        optimizer = CheckedGreedy()
        optimizer.optimize(make_problem(random_circuit_factory(seed), engine, floor=45.0))
        steps += optimizer.steps
    assert steps >= 100


def test_ranking_matches_from_scratch_with_precision_floor():
    """Nodes pinned at ``min_fractional_bits`` drop out of the ranking alike."""
    optimizer = CheckedGreedy()
    problem = make_problem(get_circuit("fir4"), "incremental", min_fractional_bits=6)
    assert optimizer.optimize(problem).feasible
    assert optimizer.steps > 0


#: SHA-256 of [assignment doc, repr(cost), [[action, accepted], ...]] of
#: greedy on fir_cascade:taps=4,samples=6 (ia, 60 dB, margin 0, horizon
#: 4, 8 bins), recorded with the from-scratch ranking this cache replaced.
GOLDEN = {
    "incremental": (
        "2328.18",
        235,
        "0ba3cdb0ff6cd62b4ceb239f51a164c3c84af959b1966712c22a30cc086b07f6",
    ),
    "batched": (
        "2151.4199999999996",
        125,
        "f222f827d8aa60f1ab71c1211cf542f2e3776c26773bad4b121dbdd89fe0b384",
    ),
}


@pytest.mark.parametrize("engine", sorted(GOLDEN))
def test_greedy_results_unchanged_on_fir_cascade(engine):
    circuit = generate_circuit("fir_cascade:taps=4,samples=6")
    result = GreedyBitStealingOptimizer().optimize(make_problem(circuit, engine, floor=60.0))
    document = [
        result.assignment.to_doc(),
        repr(result.cost),
        [[record.action, record.accepted] for record in result.iterations],
    ]
    digest = hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
    assert (repr(result.cost), len(result.iterations), digest) == GOLDEN[engine]


class TestGraphMutation:
    def test_evaluate_raises_after_add_node(self):
        problem = make_problem(get_circuit("fir4"), "incremental")
        design = problem.uniform(12)
        problem.evaluate(design)
        problem.graph.add_const(0.5, name="late")
        with pytest.raises(OptimizationError, match="'fir4' was modified"):
            problem.evaluate(design)

    def test_price_moves_raises_after_connect_delay(self):
        problem = make_problem(get_circuit("iir_biquad"), "batched")
        graph = problem.graph
        delay = graph.delays()[0]
        graph.connect_delay(delay, graph.node(delay).inputs[0])
        with pytest.raises(OptimizationError, match="was modified"):
            problem.price_moves(problem.uniform(14), [(problem.tunable[0], 3)])

    def test_ranking_raises_after_add_node(self):
        problem = make_problem(get_circuit("fir4"), "incremental")
        problem.pricing_neighbourhood()
        problem.graph.add_neg(problem.graph.inputs()[0])
        with pytest.raises(OptimizationError, match="was modified"):
            problem.pricing_neighbourhood()

    def test_rescoped_clone_shares_the_neighbourhood(self):
        problem = make_problem(get_circuit("fir4"), "incremental")
        clone = problem.rescoped(50.0)
        assert clone.pricing_neighbourhood() is problem.pricing_neighbourhood()


def test_neighbourhood_readers_are_the_overlapping_shaves():
    """``readers[a]`` holds exactly the tunable nodes whose affected set meets ``a``'s."""
    problem = make_problem(get_circuit("iir_biquad"), "incremental")
    neighbourhood = problem.pricing_neighbourhood()
    for name, (scope, readers) in neighbourhood.items():
        expected = [
            node for node in problem.tunable if set(neighbourhood[node][0]) & set(scope)
        ]
        assert sorted(readers) == sorted(expected)


_REPRICE_SCRIPT = """
from repro.benchmarks.circuits import get_circuit
from repro.dfg.node import OpType
from repro.dfg.range_analysis import infer_ranges
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage
from repro.optimize import HardwareCostModel

model = HardwareCostModel()
for name in ("fir4", "iir_biquad", "matmul2"):
    circuit = get_circuit(name)
    graph = circuit.graph
    ranges = infer_ranges(graph, circuit.input_ranges).ranges
    for word_length in (9, 13, 17):
        design = ensure_range_coverage(
            WordLengthAssignment.uniform(graph, word_length, ranges), ranges
        )
        for node in design:
            if graph.node(node).op is OpType.DELAY:
                continue
            fmt = design.format_of(node)
            shaved = design.with_fractional_bits(node, fmt.fractional_bits // 2)
            delta = model.reprice(graph, design, shaved, model.affected_by(graph, node))
            print(name, word_length, node, delta.hex())
"""


def test_reprice_is_independent_of_hash_seed():
    outputs = []
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _REPRICE_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") > 50
    assert outputs[0] == outputs[1] == outputs[2]
