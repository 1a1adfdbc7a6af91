"""The DFG consumer index behind ``successors`` / ``fanout``.

The index must answer exactly what a full scan of the graph answers —
consumers in insertion order, each once — and must never serve a stale
answer after the graph changes.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.dfg.graph import DFG
from repro.errors import NodeNotFoundError


def full_scan(graph: DFG, name: str) -> list[str]:
    """The index-free definition: every node reading ``name``, in order."""
    return [node.name for node in graph if name in node.inputs]


def assert_index_matches_scan(graph: DFG) -> None:
    for name in graph.names():
        consumers = graph.successors(name)
        assert consumers == full_scan(graph, name)
        assert len(consumers) == len(set(consumers))
        assert graph.fanout(name) == len(consumers)


@pytest.mark.parametrize("circuit_name", list(CIRCUITS))
def test_successors_equal_full_scan_on_library(circuit_name):
    assert_index_matches_scan(get_circuit(circuit_name).graph)


@pytest.mark.parametrize("spec", ["fir_cascade:taps=4,samples=6", "mlp_layer:inputs=3,neurons=2"])
def test_successors_equal_full_scan_on_generated(spec):
    assert_index_matches_scan(generate_circuit(spec).graph)


def test_successors_equal_full_scan_on_random_graphs(random_circuit_factory):
    for seed in range(10):
        assert_index_matches_scan(random_circuit_factory(seed).graph)


def test_repeated_operand_is_one_consumer():
    graph = DFG("square_by_mul")
    x = graph.add_input("x")
    product = graph.add_mul(x, x)
    graph.add_output(product, name="y")
    assert graph.successors(x) == [product]
    assert graph.fanout(x) == 1
    assert_index_matches_scan(graph)


def test_unknown_node_raises():
    graph = get_circuit("fir4").graph
    with pytest.raises(NodeNotFoundError):
        graph.successors("nosuch")
    with pytest.raises(NodeNotFoundError):
        graph.fanout("nosuch")


def test_successors_returns_a_copy():
    graph = get_circuit("fir4").graph
    name = graph.inputs()[0]
    graph.successors(name).append("junk")
    assert graph.successors(name) == full_scan(graph, name)


def test_index_rebuilt_after_add_node():
    graph = get_circuit("quadratic").graph
    x = graph.inputs()[0]
    before = graph.successors(x)
    version = graph.version
    extra = graph.add_neg(x)
    assert graph.version > version
    assert graph.successors(x) == before + [extra]
    assert_index_matches_scan(graph)


def test_index_rebuilt_after_connect_delay_rewiring():
    graph = DFG("rewire")
    a = graph.add_input("a")
    b = graph.add_input("b")
    delay = graph.add_delay(name="z")
    total = graph.add_add(a, delay)
    graph.add_output(total, name="y")
    graph.connect_delay(delay, a)
    assert graph.successors(a) == [delay, total]
    version = graph.version
    graph.connect_delay(delay, b)
    assert graph.version > version
    assert graph.successors(a) == [total]
    assert graph.successors(b) == [delay]
    assert_index_matches_scan(graph)


def test_copy_builds_its_own_index():
    graph = get_circuit("fir4").graph
    x = graph.inputs()[0]
    original = graph.successors(x)
    clone = graph.copy()
    extra = clone.add_neg(x)
    assert clone.successors(x) == original + [extra]
    assert graph.successors(x) == original
    assert_index_matches_scan(clone)
    assert_index_matches_scan(graph)


@pytest.mark.parametrize("circuit_name", ["iir_biquad", "fir4", "matmul2"])
def test_index_after_from_dict(circuit_name):
    graph = get_circuit(circuit_name).graph
    graph.successors(graph.names()[0])  # build the source graph's index first
    rebuilt = DFG.from_dict(graph.to_dict())
    assert_index_matches_scan(rebuilt)
    for name in graph.names():
        assert rebuilt.successors(name) == graph.successors(name)


def test_index_after_from_dict_with_labelled_feedback_delay():
    document = {
        "format": "repro-dfg-v1",
        "name": "acc",
        "nodes": [
            {"name": "x", "op": "input"},
            {"name": "z", "op": "delay", "inputs": ["s"], "label": "state"},
            {"name": "s", "op": "add", "inputs": ["x", "z"]},
            {"name": "y", "op": "output", "inputs": ["s"]},
        ],
    }
    graph = DFG.from_dict(document)
    assert graph.node("z").label == "state"
    assert graph.successors("s") == ["z", "y"]
    assert graph.successors("z") == ["s"]
    assert_index_matches_scan(graph)
