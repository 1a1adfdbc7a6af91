"""Shared test fixtures, including the seeded random-DFG generator.

The path shim keeps a plain ``python -m pytest`` (or an IDE runner)
working; the canonical invocation is ``PYTHONPATH=src python -m pytest``.

The random-circuit machinery is the shared backbone of the
property-based suites: ``test_differential`` asserts the enclosure
hierarchy on hundreds of generated graphs, while ``test_incremental``
and ``test_evaluate_cache`` fuzz their equivalence properties over
generated graphs instead of only the hand-written benchmark library.

:func:`reference_noise` is the from-scratch evaluator those suites hold
``OptimizationProblem.evaluate`` to with ``==``.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from repro.dfg.builder import DFGBuilder, Wire  # noqa: E402
from repro.dfg.range_analysis import infer_ranges  # noqa: E402
from repro.dfg.trace import TracedCircuit, mux  # noqa: E402
from repro.errors import DivisionByZeroIntervalError, DomainError  # noqa: E402
from repro.intervals.interval import Interval  # noqa: E402
from repro.noisemodel.analyzer import (  # noqa: E402
    ANALYSIS_METHODS,
    DatapathNoiseAnalyzer,
    propagation_algebra,
)
from repro.noisemodel.assignment import (  # noqa: E402
    WordLengthAssignment,
    ensure_range_coverage,
)

#: Word length the generator validates its circuits at; the property
#: suites analyze at the same precision so domain margins hold.
GENERATOR_WORD_LENGTH = 14

#: Input-range presets the generator draws from (mixed signs, offsets
#: and scales, all with magnitudes small enough to keep products tame).
_INPUT_PRESETS = (
    (-1.0, 1.0),
    (-0.5, 1.5),
    (0.25, 1.5),
    (0.5, 2.0),
    (-2.0, -0.5),
    (-1.5, 0.5),
)

#: Weighted operator menu: every OpType the analyzers support.
_OP_MENU = (
    ("add", 4),
    ("sub", 4),
    ("mul", 3),
    ("square", 2),
    ("neg", 1),
    ("abs", 2),
    ("min", 2),
    ("max", 2),
    ("div", 2),
    ("sqrt", 2),
    ("exp", 1),
    ("log", 1),
    ("mux", 1),
)
_OP_CHOICES = [name for name, weight in _OP_MENU for _ in range(weight)]

#: The result of any generated node must stay inside this magnitude.
_MAGNITUDE_CAP = 8.0

#: Domain margin for sqrt/log operands and divisor mignitude, sized so
#: quantization-error enclosures at GENERATOR_WORD_LENGTH cannot cross
#: a domain boundary.
_DOMAIN_MARGIN = 0.3
_DIVISOR_MARGIN = 0.4


def _attempt_random_graph(rng: random.Random, max_ops: int, ops=None):
    """One generation attempt; returns (graph, ranges, output_interval) or None."""
    choices = _OP_CHOICES if ops is None else [name for name in _OP_CHOICES if name in ops]
    builder = DFGBuilder("generated")
    input_ranges = {}
    pool: list[tuple[Wire, Interval]] = []
    for index in range(rng.randint(1, 3)):
        lo, hi = rng.choice(_INPUT_PRESETS)
        name = f"x{index}"
        input_ranges[name] = Interval(lo, hi)
        pool.append((builder.input(name), Interval(lo, hi)))

    def operand() -> tuple[Wire, Interval]:
        # Mostly existing nodes, occasionally a fresh constant.
        if rng.random() < 0.15:
            value = round(rng.uniform(-2.0, 2.0), 3)
            return builder.const(value), Interval.point(value)
        return rng.choice(pool)

    last_op: tuple[Wire, Interval] | None = None
    ops_added = 0
    for _ in range(max_ops * 6):
        if ops_added >= max_ops:
            break
        op = rng.choice(choices)
        a_wire, a_iv = operand()
        try:
            if op == "add":
                b_wire, b_iv = operand()
                wire, interval = a_wire + b_wire, a_iv + b_iv
            elif op == "sub":
                b_wire, b_iv = operand()
                wire, interval = a_wire - b_wire, a_iv - b_iv
            elif op == "mul":
                b_wire, b_iv = operand()
                wire, interval = a_wire * b_wire, a_iv * b_iv
            elif op == "div":
                b_wire, b_iv = operand()
                if b_iv.mignitude < _DIVISOR_MARGIN:
                    continue
                wire, interval = a_wire / b_wire, a_iv / b_iv
            elif op == "square":
                wire, interval = a_wire.square(), a_iv.square()
            elif op == "neg":
                wire, interval = -a_wire, -a_iv
            elif op == "abs":
                wire, interval = abs(a_wire), abs(a_iv)
            elif op in ("sqrt", "log"):
                if a_iv.lo < _DOMAIN_MARGIN:
                    # Shift the operand into the domain (the +c offset is
                    # itself a recorded ADD node), like real code guards
                    # a root/log with a bias term.
                    offset = round(_DOMAIN_MARGIN - a_iv.lo + rng.uniform(0.0, 0.5), 3)
                    a_wire, a_iv = a_wire + offset, a_iv.shift(offset)
                    if a_iv.magnitude > _MAGNITUDE_CAP:
                        continue
                if op == "sqrt":
                    wire, interval = a_wire.sqrt(), a_iv.sqrt()
                else:
                    wire, interval = a_wire.log(), a_iv.log()
            elif op == "exp":
                if a_iv.hi > 2.0 or a_iv.lo < -4.0:
                    continue
                wire, interval = a_wire.exp(), a_iv.exp()
            elif op == "min":
                b_wire, b_iv = operand()
                wire, interval = a_wire.minimum(b_wire), a_iv.minimum(b_iv)
            elif op == "max":
                b_wire, b_iv = operand()
                wire, interval = a_wire.maximum(b_wire), a_iv.maximum(b_iv)
            else:  # mux
                b_wire, b_iv = operand()
                c_wire, c_iv = operand()
                wire = mux(a_wire, b_wire, c_wire)
                if a_iv.lo >= 0.0:
                    interval = b_iv
                elif a_iv.hi < 0.0:
                    interval = c_iv
                else:
                    interval = b_iv.hull(c_iv)
        except DivisionByZeroIntervalError:
            continue
        if interval.magnitude > _MAGNITUDE_CAP:
            continue
        pool.append((wire, interval))
        last_op = (wire, interval)
        ops_added += 1

    if last_op is None or ops_added < 2:
        return None
    builder.output(last_op[0], name="out")
    return builder.build(), input_ranges, last_op[1]


def build_random_circuit(
    seed: int,
    max_ops: int = 10,
    validate: bool = True,
    ops: tuple = None,
) -> TracedCircuit:
    """Deterministically generate one analyzable random circuit.

    The generator tracks IA ranges while building (domain margins for
    ``sqrt``/``log``/``div``) and, because the AA/Taylor enclosures
    over-approximate IA, additionally *validates* each candidate by
    running every analysis method at the generator word length,
    discarding candidates whose wider enclosures still cross a domain
    boundary.  The whole process is a pure function of ``seed``.
    """
    for attempt in range(40):
        rng = random.Random(f"{seed}/{attempt}")
        built = _attempt_random_graph(rng, max_ops, ops=ops)
        if built is None:
            continue
        graph, input_ranges, _ = built
        if validate:
            try:
                ranges = infer_ranges(graph, input_ranges).ranges
                assignment = ensure_range_coverage(
                    WordLengthAssignment.uniform(graph, GENERATOR_WORD_LENGTH, ranges),
                    ranges,
                )
                analyzer = DatapathNoiseAnalyzer(graph, assignment, input_ranges)
                for method in ANALYSIS_METHODS:
                    analyzer.analyze(method, contributions=False)
            except (DomainError, DivisionByZeroIntervalError):
                continue
        return TracedCircuit(
            name=f"generated_{seed}",
            graph=graph,
            input_ranges=dict(input_ranges),
            description=f"random DFG (seed {seed})",
            output=graph.outputs()[0],
            tags=("generated",),
        )
    raise RuntimeError(f"could not generate an analyzable circuit for seed {seed}")


@pytest.fixture(scope="session")
def random_circuit_factory():
    """Session-shared factory: ``factory(seed) -> TracedCircuit`` (cached)."""
    cache: dict[tuple, TracedCircuit] = {}

    def factory(seed: int, **options) -> TracedCircuit:
        key = (seed, tuple(sorted(options.items())))
        if key not in cache:
            cache[key] = build_random_circuit(seed, **options)
        return cache[key]

    return factory


def reference_noise(problem, assignment) -> float:
    """From-scratch noise power of ``assignment`` under ``problem``'s settings.

    Builds a new :class:`DatapathNoiseAnalyzer` per call, so nothing is
    shared with the problem's incremental engine.  A domain error reads
    as ``inf`` (the problem's infeasibility convention), and a
    ``confidence`` problem is read through ``effective_noise_power``.
    """
    analyzer = DatapathNoiseAnalyzer(
        problem.graph, assignment, problem.input_ranges, horizon=problem.horizon
    )
    try:
        if problem.confidence is None:
            report = analyzer.analyze(problem.method, output=problem.output, contributions=False)
            return report.noise_power
        target = analyzer._resolve_output(problem.output)
        _values, errors, _context = analyzer._propagate(
            propagation_algebra(problem.method), target
        )
        return analyzer.effective_noise_power(problem.method, errors[target], problem.confidence)
    except (DomainError, DivisionByZeroIntervalError):
        return math.inf
