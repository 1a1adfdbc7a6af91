"""Smoke tests of the incremental-performance benchmark driver."""

from __future__ import annotations

from repro.benchmarks.bench_perf import DEFAULTS, run_perf_benchmarks
from repro.benchmarks.compare_bench import compare_documents


def small_run():
    return run_perf_benchmarks(
        DEFAULTS.replace(horizon=3, bins=8),
        circuits=["quadratic", "fft_butterfly"],
        methods=("ia", "sna"),
        reps=1,
        equiv_trials=3,
        min_speedup=0.0,  # timings on a loaded test machine are not gated here
    )


def test_document_shape_and_equivalence_gate():
    document = small_run()
    assert document["suite"] == "incremental-performance"
    assert document["equivalence_ok"] is True
    assert document["speedup_ok"] is True
    assert document["passed"] is True
    for name in ("quadratic", "fft_butterfly"):
        entry = document["circuits"][name]
        assert set(entry["results"]) == {"ia", "sna"}
        for row in entry["results"].values():
            assert row["equivalent"] is True
            assert row["max_rel_err"] == 0.0
            assert row["probes"] > 0
            assert row["runtime_s"] > 0.0
            assert row["full_runtime_s"] > 0.0
            assert row["incremental_cpu_s"] > 0.0
            assert row["full_cpu_s"] > 0.0
            assert row["inner_loop_speedup_cpu"] > 0.0
        assert entry["enclosure"] == {"ia": True, "sna": True}
        assert entry["inner_loop_method"] in ("ia", "sna")
        assert entry["inner_loop_method_cpu"] in ("ia", "sna")
        for e2e in entry["greedy_end_to_end"].values():
            assert e2e["incremental_s"] > 0.0 and e2e["full_s"] > 0.0
    assert document["circuits"]["fft_butterfly"]["gated"] is True
    assert document["circuits"]["quadratic"]["gated"] is False


def test_cpu_gate_metric():
    import pytest

    document = run_perf_benchmarks(
        DEFAULTS.replace(horizon=3, bins=8),
        circuits=["fft_butterfly"],
        methods=("ia",),
        reps=1,
        equiv_trials=2,
        min_speedup=0.0,
        gate_metric="cpu",
    )
    assert document["config"]["gate_metric"] == "cpu"
    assert document["speedup_ok"] is True
    with pytest.raises(ValueError, match="gate_metric"):
        run_perf_benchmarks(circuits=["quadratic"], gate_metric="sidereal")


def test_compare_bench_consumes_perf_documents():
    document = small_run()
    rows, failures = compare_documents(document, document)
    assert not failures
    assert {row["method"] for row in rows} == {"ia", "sna"}
    # an equivalence verdict flipping True -> False must fail the gate
    import copy

    broken = copy.deepcopy(document)
    broken["circuits"]["fft_butterfly"]["enclosure"]["ia"] = False
    _rows, failures = compare_documents(document, broken)
    assert any("UNSOUND" in message for message in failures)
