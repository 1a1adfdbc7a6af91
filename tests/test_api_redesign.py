"""The PR-7 API surface: configs, batched engine, Pareto sweeps, serialization.

Four subsystems landed together and are tested together because their
contracts interlock:

* the frozen :class:`~repro.config.AnalysisConfig` /
  :class:`~repro.config.OptimizeConfig` objects, the only way to
  configure the public entry points;
* the :class:`~repro.analysis.batched.BatchedAnalyzer` — whole-graph
  vectorized pricing that must be **bit-equal** to the from-scratch
  analyzer and the incremental engine (for IA through the compiled vector program,
  for every other method through incremental probes);
* one-call Pareto sweeps (:func:`~repro.optimize.pareto.pareto_front`)
  whose curves are monotone by construction;
* canonical DFG serialization (``to_dict``/``from_dict``/``save``/
  ``load``/``circuit_hash``).
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.analysis import BatchedAnalyzer, NoiseAnalysisPipeline
from repro.analysis.incremental import IncrementalAnalyzer
from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.config import ENGINES, AnalysisConfig, OptimizeConfig
from repro.dfg.builder import DFGBuilder
from repro.dfg.graph import DFG, DFG_FORMAT
from repro.dfg.range_analysis import infer_ranges
from repro.errors import (
    DFGError,
    DivisionByZeroIntervalError,
    DomainError,
    NoiseModelError,
    OptimizationError,
)
from repro.fixedpoint.format import QuantizationMode
from repro.intervals.interval import Interval
from repro.noisemodel.analyzer import ANALYSIS_METHODS, DatapathNoiseAnalyzer
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage
from repro.optimize import (
    OptimizationProblem,
    ParetoFront,
    ParetoPoint,
    get_optimizer,
    pareto_front,
)

def _perturbed_candidates(problem, count, seed, max_shave=3):
    """Deterministic coverage-widened perturbations of the uniform-12 base."""
    rng = random.Random(seed)
    base = problem.uniform(12)
    nodes = sorted(base.formats)
    candidates = []
    for trial in range(count):
        assignment = base
        for node in rng.sample(nodes, min(1 + trial % 3, len(nodes))):
            frac = assignment.format_of(node).fractional_bits
            assignment = assignment.with_fractional_bits(
                node, max(0, frac + rng.choice(range(-max_shave, 2)))
            )
        candidates.append(ensure_range_coverage(assignment, problem.ranges))
    return candidates


def _seeded_moves(candidate, rng, deltas, count):
    """``(node, new_fractional_bits)`` moves of up to ``count`` seeded nodes."""
    nodes = sorted(candidate.formats)
    return [
        (node, max(0, candidate.format_of(node).fractional_bits + rng.choice(deltas)))
        for node in rng.sample(nodes, min(count, len(nodes)))
    ]


def _moved(candidate, node, new_frac, ranges):
    """The coverage-widened design lane ``(node, new_frac)`` prices, or ``None``."""
    try:
        return ensure_range_coverage(candidate.with_fractional_bits(node, new_frac), ranges)
    except NoiseModelError:
        return None


# --------------------------------------------------------------------- #
# batched engine: equivalence against fresh and incremental
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_batched_matches_fresh_and_incremental_all_methods(name):
    """Every ``price_moves`` lane equals per-candidate analysis on every circuit."""
    circuit = get_circuit(name)
    problem = OptimizationProblem.from_circuit(
        circuit,
        58.0,
        config=OptimizeConfig(snr_floor_db=58.0, method="ia", horizon=6, bins=16),
    )
    candidates = _perturbed_candidates(problem, 6, seed=hash(name) & 0xFFFF)
    batched = problem.batched_engine()
    for method in ANALYSIS_METHODS:
        rng = random.Random(f"{name}/{method}")
        incremental = IncrementalAnalyzer(
            problem.graph,
            problem.uniform(12),
            problem.input_ranges,
            horizon=problem.horizon,
            bins=problem.bins,
        )
        for trial, candidate in enumerate(candidates):
            moves = _seeded_moves(candidate, rng, (-2, -1, 1), 2)
            prices = batched.price_moves(candidate, moves, method, output=problem.output)
            for lane, (node, new_frac) in enumerate(moves):
                design = _moved(candidate, node, new_frac, problem.ranges)
                assert design is not None, (name, method, trial, lane)
                fresh = DatapathNoiseAnalyzer(
                    problem.graph,
                    design,
                    problem.input_ranges,
                    horizon=problem.horizon,
                    bins=problem.bins,
                ).analyze(method, output=problem.output)
                inc = incremental.noise_power(design, method, output=problem.output, commit=False)
                got = float(prices[lane])
                assert got == fresh.noise_power, (name, method, trial, lane)
                assert got == inc, (name, method, trial, lane)


def test_batched_price_moves_matches_evaluate():
    """Every lane of ``price_moves`` equals the scalar evaluation of its move."""
    circuit = get_circuit("sigmoid_neuron")
    problem = OptimizationProblem.from_circuit(
        circuit,
        55.0,
        config=OptimizeConfig(snr_floor_db=55.0, method="ia", engine="batched"),
    )
    current = problem.evaluate_uniform(14)
    moves = []
    for node in problem.tunable:
        fmt = current.assignment.formats.get(node)
        if fmt is not None and fmt.fractional_bits > problem.min_fractional_bits:
            moves.append((node, fmt.fractional_bits - 1))
    assert len(moves) >= 4
    prices = problem.price_moves(current.assignment, moves)
    for (node, new_frac), price in zip(moves, prices):
        shaved = current.assignment.with_fractional_bits(node, new_frac)
        evaluation = problem.evaluate(shaved)
        assert float(price) == evaluation.noise_power, node


@pytest.mark.parametrize("seed", range(8))
def test_batched_property_random_circuits(random_circuit_factory, seed):
    """Compiled IA lanes are exact on generated graphs, inf on domain failures."""
    circuit = random_circuit_factory(seed, max_ops=8)
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    base = ensure_range_coverage(
        WordLengthAssignment.uniform(circuit.graph, 14, ranges), ranges
    )
    engine = IncrementalAnalyzer(circuit.graph, base, circuit.input_ranges, horizon=6, bins=12)
    batched = BatchedAnalyzer(engine, ranges)
    rng = random.Random(seed)
    nodes = sorted(base.formats)
    for trial in range(6):
        candidate = base
        for node in rng.sample(nodes, min(1 + trial % 2, len(nodes))):
            frac = candidate.format_of(node).fractional_bits
            candidate = candidate.with_fractional_bits(node, max(0, frac - rng.choice((1, 3))))
        candidate = ensure_range_coverage(candidate, ranges)
        # Aggressive shaves (moves reach -9 fractional bits) so some lanes
        # cross sqrt/log/div domain boundaries — the scalar analyzer
        # raises there and the batched lane must price inf instead.
        moves = _seeded_moves(candidate, rng, (-1, -3, -9), 3)
        prices = batched.price_moves(candidate, moves, "ia", output=circuit.output)
        for lane, (node, new_frac) in enumerate(moves):
            design = _moved(candidate, node, new_frac, ranges)
            try:
                if design is None:
                    raise NoiseModelError("uncoverable lane")
                want = DatapathNoiseAnalyzer(
                    circuit.graph, design, circuit.input_ranges, horizon=6, bins=12
                ).analyze("ia", output=circuit.output).noise_power
            except (NoiseModelError, DomainError, DivisionByZeroIntervalError):
                assert math.isinf(float(prices[lane])), (seed, trial, lane)
            else:
                assert float(prices[lane]) == want, (seed, trial, lane)


def test_batched_failed_value_sweep_prices_every_lane_inf():
    """A value sweep that raises compiles to a program whose lanes all price inf."""
    builder = DFGBuilder("sqrt_of_signed")
    x = builder.input("x")
    root = x.sqrt()
    builder.output(root, name="y")
    graph = builder.graph
    # sqrt's range is stated, not inferred: range analysis would raise on
    # the same domain violation the engine's IA value sweep hits.
    ranges = {"x": Interval(-1.0, 1.0), root.node_name: Interval(0.0, 1.0)}
    design = WordLengthAssignment.uniform(graph, 12, ranges)
    engine = IncrementalAnalyzer(graph, design, {"x": Interval(-1.0, 1.0)})
    moves = [(node, design.format_of(node).fractional_bits - 1) for node in sorted(ranges)]
    prices = BatchedAnalyzer(engine, ranges).price_moves(design, moves, "ia", output="y")
    assert list(prices) == [math.inf, math.inf]
    with pytest.raises(DomainError):
        engine.noise_power(design, "ia", output="y")


@pytest.mark.parametrize("method", ["ia", "aa"])
def test_price_moves_rejects_foreign_modes(method):
    """A foreign-mode base raises like ``evaluate``: no price, no degradation."""
    problem = OptimizationProblem.from_circuit(
        get_circuit("fir4"), 55.0, config=OptimizeConfig(method=method, engine="batched")
    )
    design = ensure_range_coverage(problem.uniform(14), problem.ranges)
    node = problem.tunable[1]
    moves = [(node, design.format_of(node).fractional_bits - 1)]
    foreign = WordLengthAssignment(
        dict(design.formats), QuantizationMode.TRUNCATE, design.overflow
    )
    with pytest.raises(OptimizationError, match="modes"):
        problem.price_moves(foreign, moves)
    assert problem.degradations == [] and problem.engine == "batched"
    assert problem._state.incremental is None and problem._state.batched is None
    # The problem's own modes still price the move exactly.
    lane = problem.price_moves(design, moves)[0]
    assert lane == problem.evaluate(design.with_fractional_bits(*moves[0])).noise_power
    # The kernel itself refuses modes its engine was not built for.
    with pytest.raises(NoiseModelError, match="modes"):
        problem.batched_engine().price_moves(foreign, moves, method)


def test_batched_greedy_never_worse_than_incremental():
    """Exact frontier pricing beats (or ties) the scalar gain heuristic."""
    for name in ("fir4", "sigmoid_neuron"):
        circuit = get_circuit(name)
        costs = {}
        for engine in ("incremental", "batched"):
            problem = OptimizationProblem.from_circuit(
                circuit,
                60.0,
                config=OptimizeConfig(snr_floor_db=60.0, method="ia", engine=engine),
            )
            result = get_optimizer("greedy").optimize(problem)
            assert result.feasible
            costs[engine] = result.cost
        assert costs["batched"] <= costs["incremental"], name


# --------------------------------------------------------------------- #
# configs: the one calling convention
# --------------------------------------------------------------------- #


def test_configs_are_frozen_and_validated():
    with pytest.raises(Exception):
        AnalysisConfig(word_length=12).word_length = 16  # type: ignore[misc]
    for bad in ({"engine": "warp"}, {"engine": "fresh"}, {"bins": 0}, {"snr_floor_db": math.nan}):
        with pytest.raises(OptimizationError):
            OptimizeConfig(**bad)
    assert set(ENGINES) == {"incremental", "batched"}
    assert OptimizeConfig().replace(engine="batched").engine == "batched"


#: Keywords the config objects replaced; each entry point now rejects them.
RETIRED_KEYWORDS = {
    "pipeline": {
        "word_length": 10,
        "horizon": 4,
        "bins": 16,
        "mc_samples": 500,
        "seed": 3,
        "enclosure_tol": 1e-9,
    },
    "problem": {
        "method": "ia",
        "horizon": 4,
        "bins": 8,
        "margin_db": 2.0,
        "min_fractional_bits": 1,
        "max_word_length": 20,
        "quantization": "truncate",
        "overflow": "wrap",
        "mc_workers": 1,
    },
    "optimize": {"method": "ia", "margin_db": 0.5, "max_word_length": 20},
}


def _retired_calls():
    for entry, keywords in RETIRED_KEYWORDS.items():
        for keyword, value in keywords.items():
            yield pytest.param(entry, (), {keyword: value}, keyword, id=f"{entry}-{keyword}")
    # the pre-config positional word length: NoiseAnalysisPipeline(10)
    yield pytest.param("pipeline", (10,), {}, "AnalysisConfig", id="pipeline-positional")


@pytest.mark.parametrize("entry, args, kwargs, message", _retired_calls())
def test_retired_calling_conventions_raise_type_error(entry, args, kwargs, message):
    circuit = get_circuit("quadratic")
    with pytest.raises(TypeError, match=message):
        if entry == "pipeline":
            NoiseAnalysisPipeline(*args, **kwargs)
        elif entry == "problem":
            OptimizationProblem.from_circuit(circuit, 50.0, **kwargs)
        else:
            pipeline = NoiseAnalysisPipeline(AnalysisConfig(horizon=4, bins=8))
            pipeline.optimize(circuit, 50.0, **kwargs)


def test_pipeline_optimize_matches_config_path():
    circuit = get_circuit("quadratic")
    pipeline = NoiseAnalysisPipeline(AnalysisConfig(word_length=12, horizon=4, bins=8))
    config = OptimizeConfig(
        snr_floor_db=50.0,
        method="ia",
        margin_db=0.5,
        max_word_length=20,
        horizon=4,
        bins=8,
    )
    via_pipeline = pipeline.optimize(circuit, 50.0, config=config)
    problem = OptimizationProblem.from_circuit(circuit, 50.0, config=config)
    direct = get_optimizer("greedy").optimize(problem)
    assert via_pipeline.cost == direct.cost
    assert via_pipeline.assignment.key() == direct.assignment.key()


# --------------------------------------------------------------------- #
# Pareto sweeps
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ["fir4", "sigmoid_neuron"])
def test_pipeline_pareto_monotone_one_call(name):
    pipeline = NoiseAnalysisPipeline(AnalysisConfig(horizon=6, bins=16))
    config = OptimizeConfig(method="ia", engine="batched", horizon=6, bins=16)
    front = pipeline.pareto(get_circuit(name), [45.0, 50.0, 55.0, 60.0], config=config)
    assert front.is_monotone()
    assert len(front.feasible_points) == 4
    floors = [p.snr_floor_db for p in front.points]
    assert floors == sorted(floors)  # loosest first
    costs = [p.cost for p in front.feasible_points]
    assert costs == sorted(costs)  # tighter floors cost more (or equal)
    for point in front.feasible_points:
        assert point.snr_db >= point.snr_floor_db


def test_pareto_front_shares_state_across_floors():
    """The swept problem ends up warm: later work reuses the sweep's caches."""
    circuit = get_circuit("fir4")
    problem = OptimizationProblem.from_circuit(
        circuit,
        60.0,
        config=OptimizeConfig(snr_floor_db=60.0, method="ia", engine="batched"),
    )
    front = problem.pareto([50.0, 55.0, 60.0])
    assert front.is_monotone()
    calls_after_sweep = problem.analyzer_calls
    assert calls_after_sweep > 0  # the sweep's views share the caller's counters
    # Re-solving the tightest floor hits the evaluation cache entirely.
    result = get_optimizer("greedy").optimize(problem)
    assert result.feasible
    assert problem.analyzer_calls == calls_after_sweep


def test_rescoped_rejudges_cached_feasibility():
    circuit = get_circuit("quadratic")
    problem = OptimizationProblem.from_circuit(
        circuit, 50.0, config=OptimizeConfig(snr_floor_db=50.0, method="ia", margin_db=0.0)
    )
    evaluation = problem.evaluate_uniform(12)
    clone = problem.rescoped(evaluation.snr_db + 5.0)
    re_judged = clone.evaluate(evaluation.assignment)
    assert evaluation.feasible and not re_judged.feasible
    assert clone.analyzer_calls == problem.analyzer_calls  # cache hit, no new probe


def test_pareto_front_requires_floors_and_orders_points():
    circuit = get_circuit("quadratic")
    problem = OptimizationProblem.from_circuit(
        circuit, 50.0, config=OptimizeConfig(snr_floor_db=50.0, method="ia")
    )
    with pytest.raises(OptimizationError):
        pareto_front(problem, [])
    front = problem.pareto([55.0, 45.0, 55.0])  # dedup + any order in
    assert [p.snr_floor_db for p in front.points] == [45.0, 55.0]
    doc = front.to_dict()
    assert doc["monotone"] == front.is_monotone()
    assert [p["snr_floor_db"] for p in doc["points"]] == [45.0, 55.0]


def test_pareto_is_monotone_detects_violations():
    def point(floor, cost, feasible=True):
        return ParetoPoint(
            snr_floor_db=floor,
            cost=cost,
            snr_db=floor + 1.0,
            feasible=feasible,
            total_bits=100,
            analyzer_calls=1,
            runtime_s=0.0,
        )

    good = ParetoFront("c", "greedy", "ia", points=[point(45, 10.0), point(55, 12.0)])
    assert good.is_monotone()
    bad = ParetoFront("c", "greedy", "ia", points=[point(45, 13.0), point(55, 12.0)])
    assert not bad.is_monotone()
    # Infeasible points carry no design and never break monotonicity.
    mixed = ParetoFront(
        "c", "greedy", "ia",
        points=[point(45, 10.0), point(50, math.inf, feasible=False), point(55, 12.0)],
    )
    assert mixed.is_monotone()


# --------------------------------------------------------------------- #
# canonical serialization
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_dfg_round_trip_and_hash(name, tmp_path):
    graph = get_circuit(name).graph
    document = graph.to_dict()
    assert document["format"] == DFG_FORMAT
    rebuilt = DFG.from_dict(document)
    assert rebuilt.to_dict() == document
    assert rebuilt.circuit_hash() == graph.circuit_hash()
    path = tmp_path / f"{name}.json"
    graph.save(path)
    loaded = DFG.load(path)
    assert loaded.to_dict() == document
    # The hash is a pure function of the canonical document.
    assert len(graph.circuit_hash()) == 64


def test_dfg_hash_distinguishes_circuits():
    hashes = {get_circuit(name).graph.circuit_hash() for name in CIRCUITS}
    assert len(hashes) == len(CIRCUITS)


def test_dfg_serialization_preserves_semantics():
    """A reloaded graph analyzes identically to the original."""
    circuit = get_circuit("iir_biquad")
    rebuilt = DFG.from_dict(circuit.graph.to_dict())
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    assignment = ensure_range_coverage(
        WordLengthAssignment.uniform(circuit.graph, 12, ranges), ranges
    )
    want = DatapathNoiseAnalyzer(
        circuit.graph, assignment, circuit.input_ranges, horizon=6, bins=16
    ).analyze("ia", output=circuit.output)
    ranges2 = infer_ranges(rebuilt, circuit.input_ranges).ranges
    assignment2 = ensure_range_coverage(
        WordLengthAssignment.uniform(rebuilt, 12, ranges2), ranges2
    )
    got = DatapathNoiseAnalyzer(
        rebuilt, assignment2, circuit.input_ranges, horizon=6, bins=16
    ).analyze("ia", output=circuit.output)
    assert got.noise_power == want.noise_power
    assert (got.bounds.lo, got.bounds.hi) == (want.bounds.lo, want.bounds.hi)


def test_dfg_from_dict_rejects_malformed_documents():
    graph = get_circuit("quadratic").graph
    good = graph.to_dict()
    with pytest.raises(DFGError):
        DFG.from_dict({**good, "format": "repro-dfg-v999"})
    with pytest.raises(DFGError):
        DFG.from_dict("not a mapping")  # type: ignore[arg-type]
    broken = json.loads(json.dumps(good))
    broken["nodes"][0] = {"name": "x"}  # no op
    with pytest.raises(DFGError):
        DFG.from_dict(broken)


def test_dfg_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DFGError):
        DFG.load(path)


# --------------------------------------------------------------------- #
# enclosure tri-state
# --------------------------------------------------------------------- #


def test_enclosure_verdict_tri_state():
    pipeline = NoiseAnalysisPipeline(AnalysisConfig(horizon=4, bins=8, mc_samples=2_000))
    circuit = get_circuit("quadratic")
    no_mc = pipeline.analyze(circuit, method=("ia", "aa"))
    assert no_mc.enclosure == {}
    assert no_mc.enclosure_verdict() is None
    with_mc = pipeline.analyze(circuit, method=("ia", "montecarlo"))
    assert with_mc.enclosure_verdict() is True
    with_mc.enclosure["ia"] = False
    assert with_mc.enclosure_verdict() is False
