"""The trace-based Python frontend (repro.dfg.trace)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import AnalysisConfig, NoiseAnalysisPipeline
from repro.dfg.evaluate import simulate_batch
from repro.dfg.node import OpType
from repro.dfg.trace import (
    TracedCircuit,
    exp,
    fabs,
    log,
    maximum,
    minimum,
    mux,
    sqrt,
    square,
    trace,
)
from repro.errors import DFGError


def _magnitude(x, y):
    """Saturated complex magnitude."""
    return minimum(sqrt(square(x) + square(y) + 0.0625), 1.5)


class TestTracing:
    def test_traced_graph_matches_python_execution(self):
        circuit = trace(_magnitude, {"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
        assert isinstance(circuit, TracedCircuit)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1.0, 1.0, 200)
        ys = rng.uniform(-1.0, 1.0, 200)
        got = simulate_batch(circuit.graph, {"x": xs, "y": ys})[circuit.output]
        want = np.array([_magnitude(float(a), float(b)) for a, b in zip(xs, ys)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_math_helpers_fall_back_to_plain_numbers(self):
        assert sqrt(4.0) == 2.0
        assert exp(0.0) == 1.0
        assert log(math.e) == pytest.approx(1.0)
        assert fabs(-2.5) == 2.5
        assert square(3.0) == 9.0
        assert minimum(1.0, 2.0) == 1.0
        assert maximum(1.0, 2.0) == 2.0
        assert mux(1.0, "a", "b") == "a"
        assert mux(-1.0, "a", "b") == "b"

    def test_all_helpers_record_nodes(self):
        def everything(x, y):
            clamped = maximum(minimum(x, y), -0.5)
            branched = mux(x, clamped, fabs(y))
            return log(exp(branched) + sqrt(square(x) + 1.0))

        circuit = trace(everything, {"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
        ops = {node.op for node in circuit.graph}
        assert {
            OpType.MIN,
            OpType.MAX,
            OpType.MUX,
            OpType.ABS,
            OpType.LOG,
            OpType.EXP,
            OpType.SQRT,
            OpType.SQUARE,
        } <= ops

    def test_tuple_return_becomes_multiple_outputs(self):
        def butterfly(a, b):
            return a + b, a - b

        circuit = trace(butterfly, {"a": (-1.0, 1.0), "b": (-1.0, 1.0)})
        assert circuit.graph.outputs() == ["out0", "out1"]
        assert circuit.output == "out0"

    def test_output_names_override(self):
        circuit = trace(
            lambda a: (a + 1.0, a - 1.0),
            {"a": (-1.0, 1.0)},
            name="pair",
            output_names=("hi", "lo"),
        )
        assert circuit.graph.outputs() == ["hi", "lo"]
        assert circuit.name == "pair"

    def test_constant_return_is_materialized(self):
        circuit = trace(lambda a: 2.5, {"a": (-1.0, 1.0)})
        source = circuit.graph.node(circuit.graph.outputs()[0]).inputs[0]
        assert circuit.graph.node(source).op is OpType.CONST

    def test_missing_and_unknown_ranges_raise(self):
        with pytest.raises(DFGError, match="missing input ranges"):
            trace(lambda a, b: a + b, {"a": (-1.0, 1.0)})
        with pytest.raises(DFGError, match="unknown arguments"):
            trace(lambda a: a, {"a": (-1.0, 1.0), "z": (0.0, 1.0)})

    def test_non_numeric_return_raises(self):
        with pytest.raises(DFGError, match="must return wires"):
            trace(lambda a: "nope", {"a": (-1.0, 1.0)})


class TestTracedCircuitIntegration:
    def test_pipeline_accepts_traced_circuit(self):
        circuit = trace(_magnitude, {"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
        pipeline = NoiseAnalysisPipeline(
            AnalysisConfig(word_length=12, mc_samples=2000, seed=0)
        )
        report = pipeline.analyze(circuit)
        for method in ("ia", "aa", "taylor"):
            assert report.enclosure[method], method

    def test_docstring_becomes_description(self):
        circuit = trace(_magnitude, {"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
        assert circuit.description == "Saturated complex magnitude."
        assert circuit.name == "_magnitude"
        assert not circuit.sequential
