"""The library names ``perfbench/tracer.py`` wraps stay patchable.

The performance benchmark measures the library from outside: its tracer
replaces chosen module-level functions and methods with timing wrappers
for one traced operation and restores them afterwards.  A refactor that
drops one of those names breaks the benchmark, and one that binds a
wrapped function at import time (``from ... import monte_carlo_error``
in a caller) hides that layer's calls from it.  This test installs the
tracer, as the benchmark does, on a fresh recorder and checks both.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

from repro.benchmarks.circuits import get_circuit
from repro.config import OptimizeConfig
from repro.optimize import OptimizationProblem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    """``perfbench/tracer.py`` imported from its directory, unloaded afterwards."""
    if not (PERFBENCH / "tracer.py").is_file():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    import tracer as module

    yield module
    for name in set(sys.modules) - loaded:
        if name in ("tracer", "workloads"):
            del sys.modules[name]


def test_tracer_installs_counts_validation_and_restores_every_name(tracer):
    recorder = tracer.Recorder()
    patched = []
    patch = recorder.patch

    def recording_patch(owner, attr, *args, **kwargs):
        patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        patch(owner, attr, *args, **kwargs)

    recorder.patch = recording_patch
    problem = OptimizationProblem.from_circuit(
        get_circuit("fir4"), 40.0, config=OptimizeConfig(method="ia", horizon=4)
    )
    design = problem.uniform(12)
    tracer.install(recorder)
    try:
        names = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in patched}
        assert ("repro.analysis.montecarlo", "monte_carlo_error") in names
        assert ("repro.analysis.montecarlo", "monte_carlo_error_sharded") in names
        assert problem.mc_workers is None
        problem.monte_carlo_snr(design, samples=2000, seed=0)
    finally:
        recorder.restore()
    assert recorder.spans["mc"][0] == 1
    assert recorder.counters["mc.samples"] == 2000
    moved = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in patched
        if inspect.getattr_static(owner, attr) is not original
    ]
    assert moved == []
