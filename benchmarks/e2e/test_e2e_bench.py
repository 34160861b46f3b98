"""Smoke tests for the end-to-end benchmark, on tiny workload sizes.

Collected by ``pytest benchmarks`` (not by the tier-1 suite).
"""

import json
from pathlib import Path

import pytest

from harness import build, end_to_end, per_layer, timed_run
from repro.apps.kernels import OUTPUT
from spantrace import LAYERS, SpanTracer

#: Tiny sizes per workload: one or two slices, a few hundred events.
TINY = {
    "isa_dense_480": {"slices": (1, 1), "base_iters": 5, "step_iters": 1},
    "isa_sparse_480": {"slices": (1, 1)},
    "noc_shift_480": {"slices": (2, 1), "packets": 1, "words": 2},
    "rt_dvfs_64": {"slices": (1, 1), "tasks": 4},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_digest_repeats_across_runs(name):
    first = timed_run(name, 1, TINY[name])
    second = timed_run(name, 1, TINY[name])
    assert first.failed == 0 and first.ops > 0
    assert first.digest == second.digest


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_only_observes(name):
    plain = timed_run(name, 2, TINY[name])
    with SpanTracer() as tracer:
        traced = timed_run(name, 2, TINY[name], tracer=tracer)
    assert traced.digest == plain.digest
    assert traced.events == plain.events


def test_self_times_sum_to_traced_wall():
    with SpanTracer() as tracer:
        record = timed_run("noc_shift_480", 3, TINY["noc_shift_480"], tracer=tracer)
    rollup = tracer.rollup()
    assert set(rollup.self_s) == set(LAYERS)
    assert rollup.self_s["network"] > 0 and rollup.self_s["xs1"] > 0
    assert sum(rollup.self_s.values()) == pytest.approx(record.wall_s, rel=0.01)


def test_corrupted_kernel_output_fails_one_op():
    workload = build("isa_sparse_480", 1, TINY["isa_sparse_480"])
    workload.system.run()
    assert workload.verify().failed == 0
    memory = workload.system.cores[0].memory
    memory.store_word(OUTPUT, memory.load_word(OUTPUT) ^ 1)
    verdict = workload.verify()
    assert verdict.ops == 16
    assert verdict.failed == 1


def test_permutation_wedge_reports_failed_words():
    """Seed 4's random permutation deadlocks a single slice mid-run."""
    record = timed_run("noc_shift_480", 4, {
        "slices": (1, 1), "packets": 4, "words": 4, "pattern": "permutation",
    })
    assert record.ops == 16 * 4 * 4
    assert 0 < record.failed < record.ops


def test_lost_tick_spans_fail_the_traced_run(monkeypatch):
    import harness

    monkeypatch.setattr(harness, "TICK_EVENT", "XCore.renamed_tick")
    result, info = per_layer("isa_dense_480", 1, 0, TINY["isa_dense_480"])
    assert result["failed"] == 0 and not result["correct"]
    assert "XCore.renamed_tick" in info["attribution_errors"]
    assert info["skipped"] == "none"


def test_compare_counts_a_crashed_run_as_a_lost_pair():
    from compare import verdict

    row = verdict([1.0, 1.0, 1.1], [0.5, None, 0.5], "lower", 0.2, more_failures=True)
    assert (row["wins"], row["pairs"]) == (2, 3)
    assert verdict([1.0, 1.1], [None, 0.5], "lower", 0.2, True)["verdict"] == "missing"


def test_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    sizes = TINY["noc_shift_480"]
    plain, _ = end_to_end("noc_shift_480", 1, 0, sizes)
    traced, _ = per_layer("noc_shift_480", 1, 0, sizes)
    for result, declared in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
