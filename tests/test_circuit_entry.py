"""One way in for a circuit: the record, the frontends and the package layering.

Every library circuit's graph is pinned by ``circuit_hash()``, so a change
to a frontend or to the library that moves a graph (and with it every
benchmark digest) fails here first.  The README quickstart runs verbatim,
and ``repro.analysis`` must stay importable without ``repro.optimize``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarks import CIRCUITS, get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.dfg.builder import DFGBuilder
from repro.dfg.trace import TracedCircuit, square, trace, unpack_circuit
from repro.errors import NoiseModelError, OptimizationError
from repro.intervals.interval import Interval

ROOT = Path(__file__).resolve().parent.parent

#: ``circuit_hash()`` of every library circuit and of perfbench's two
#: generator specs.
PINNED_HASHES = {
    "quadratic": "faead28fbcd9f5e5fe63a231315fd808cd4f362521e1b0fdf700ce878452f5f9",
    "poly3": "93bd2e856a687935462ba6bac941022de023ad446ad8bd5253fcba6ae9383358",
    "fir4": "844e5a3b12251babdd9124878b389aeeef88d541b8c34dfff8bab049dfb01199",
    "iir_biquad": "2da35f98b9a736848c3c546d13455583c8397d4872e357100cc6620e8dbf3dcb",
    "fft_butterfly": "d90c8bb07b88cecbaee2930c2c300741e9cc100573da3b991fe383476a8cfa9c",
    "matmul2": "23037427926644feda6c0c8bbf26561607ed92bc169e843f279cd4379d9e85a9",
    "newton_inverse": "fec8ab55d128131d077e5350bbe37e30e7b7a442fb21164b26f70c8acd5b08ca",
    "rms_normalize": "a52e73bde1ba0f3c440354f285abdc31630677a8a588820702d5e443278254ae",
    "sigmoid_neuron": "d5f3bd74735a76f447d135a20f9261d40fed54beea64c7a5b1671fdd81ce1e3e",
    "log_energy": "5ef146498dcba2bb6b4563c0bb6ebcc10ed11b09d9b10ed590e1ed9c86532941",
    "complex_magnitude": "7f789e53cbf3a46119af6ecda4ff639e1fd0379f1b3686353941b3a5cd782348",
    "fir_cascade:taps=8,samples=12": (
        "9aa97d3ba757adcf192ee3e49355a5aa164306f7c0a88334b1eeb9b4ac8352d1"
    ),
    "mlp_layer:inputs=6,neurons=3": (
        "5f04648d8b5f93a64b19f5195d81df7ee818b8b47d28804c0ff4c2763d65a23a"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_circuit_hash_is_pinned(name):
    circuit = generate_circuit(name) if ":" in name else get_circuit(name)
    assert isinstance(circuit, TracedCircuit)
    assert circuit.graph.circuit_hash() == PINNED_HASHES[name]


def test_pins_cover_the_whole_library():
    assert set(CIRCUITS) <= set(PINNED_HASHES)


def test_builder_and_trace_build_the_same_quadratic():
    builder = DFGBuilder("quadratic")
    x = builder.input("x")
    builder.output(x.square() + x, name="out")
    traced = trace(lambda x: square(x) + x, {"x": (-4.0, 3.0)}, name="quadratic")
    assert builder.build().circuit_hash() == PINNED_HASHES["quadratic"]
    assert traced.graph.circuit_hash() == PINNED_HASHES["quadratic"]


# --------------------------------------------------------------------- #
# the one circuit unpacking
# --------------------------------------------------------------------- #


def test_unpack_circuit_reads_a_record():
    circuit = get_circuit("fft_butterfly")
    graph, ranges, name, output = unpack_circuit(circuit, None, NoiseModelError)
    assert graph is circuit.graph
    assert ranges == circuit.input_ranges
    assert (name, output) == ("fft_butterfly", "x1")
    # explicit ranges override the record's own
    _, narrowed, _, _ = unpack_circuit(
        circuit, {"a": (0.0, 0.5), "b": (0.0, 0.5)}, NoiseModelError
    )
    assert narrowed == {"a": Interval(0.0, 0.5), "b": Interval(0.0, 0.5)}


def test_unpack_circuit_reads_a_bare_graph():
    graph = get_circuit("fir4").graph
    _, ranges, name, output = unpack_circuit(graph, {"x": (-1.0, 1.0)}, OptimizationError)
    assert ranges == {"x": Interval(-1.0, 1.0)}
    assert (name, output) == ("fir4", None)


@pytest.mark.parametrize("error", [NoiseModelError, OptimizationError])
def test_unpack_circuit_raises_the_callers_error(error):
    graph = get_circuit("fir4").graph
    with pytest.raises(error, match="input_ranges is required"):
        unpack_circuit(graph, None, error)
    with pytest.raises(error, match="missing input ranges for: x"):
        unpack_circuit(graph, {}, error)
    with pytest.raises(error, match="got str"):
        unpack_circuit("fir4", None, error)


# --------------------------------------------------------------------- #
# layering and documentation
# --------------------------------------------------------------------- #


def test_analysis_package_loads_no_optimize_module():
    code = (
        "import sys, repro.analysis; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.optimize')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == "[]"


def _readme_quickstart() -> tuple[str, list[str]]:
    """The README's first python block and the summary lines shown after it."""
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", readme, re.S)
    assert match, "README quickstart block not found"
    return match.group(1), match.group(2).splitlines()


def test_readme_quickstart_runs_verbatim():
    code, shown = _readme_quickstart()
    assert "trace(" in code
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    lines = printed.getvalue().splitlines()
    assert len(lines) == len(shown)
    for got, expected in zip(lines, shown):
        # the README elides runtimes with "..."
        assert got.startswith(expected.split(" ...")[0]), (got, expected)
