"""The acceptance criteria: byte-identity across cold / warm / killed
runs, >=90% cache hits on the second pass, metric extraction."""

import pytest

from repro.dse import (
    SweepSpec,
    extract_metrics,
    fold_results,
    front_json,
    pareto_front,
    report_json,
    run_inline,
    run_sweep,
)
from repro.dse.report import SCHEMA, deadline_counts
from repro.farm import ResultCache

SPEC = {
    "workload": "demo",
    "sweep": {"topology": ["lattice", "torus"], "seed": [1, 2]},
}


def spec():
    return SweepSpec.from_dict(SPEC)


class TestMetricExtraction:
    def test_derived_figures(self):
        report = {
            "energy": {
                "elapsed_s": 2e-6,
                "total_instructions": 4000,
                "total_energy_j": 8e-9,
                "mean_power_w": 4e-3,
                "link_energy_j": 1e-9,
            },
            "metrics": {
                "nos.deadline_hit{policy=edf}": 8,
                "nos.deadline_miss{policy=edf}": 2,
                "nos.deadline_shed{policy=edf}": 0,
                "nos.replacements{policy=edf}": 3,
            },
            "delivered_ok": True,
        }
        metrics = extract_metrics(report)
        assert (metrics["deadline_hit"], metrics["deadline_miss"],
                metrics["deadline_shed"], metrics["replacements"]) == \
            (8, 2, 0, 3)
        assert metrics["gips"] == pytest.approx(4000 / 2e-6 / 1e9)
        assert metrics["energy_per_instr_pj"] == pytest.approx(
            8e-9 / 4000 * 1e12
        )
        assert metrics["deadline_miss_rate"] == pytest.approx(0.2)
        assert metrics["delivered_ok"] is True

    def test_missing_figures_stay_none(self):
        metrics = extract_metrics({"energy": {}})
        assert metrics["gips"] is None
        assert metrics["energy_per_instr_pj"] is None
        assert metrics["deadline_miss_rate"] is None

    def test_deadline_counts_sum_across_policies(self):
        counts = deadline_counts({
            "nos.deadline_miss{policy=edf}": 1,
            "nos.deadline_miss{policy=rm}": 2,
            "nos.deadline_hit{policy=edf}": 3,
            "unrelated{x=1}": 99,
        })
        assert counts == {"hit": 3, "miss": 3, "shed": 0}


class TestInlineFold:
    def test_report_shape_and_byte_identity(self):
        report = run_inline(spec())
        assert report["schema"] == SCHEMA
        assert report["points"] == 4
        assert report["summary"]["survived"] == 4
        assert [c["job_id"] for c in report["cells"]] == [
            j.job_id for j in spec().jobs()
        ]
        assert report_json(report) == report_json(run_inline(spec()))

    def test_missing_documents_fold_as_failed_cells(self):
        jobs = spec().jobs()
        documents = {job.digest: None for job in jobs}
        report = fold_results(spec(), documents)
        assert report["summary"]["failed"] == 4
        assert all(cell["metrics"] is None for cell in report["cells"])
        assert not any(cell["survived"] for cell in report["cells"])
        # Still canonical and digest-stable.
        assert report_json(report) == report_json(
            fold_results(spec(), documents)
        )


class TestFarmByteIdentity:
    """Same seed + same spec => byte-identical report and front, even
    killed mid-run and resumed (exit-75), with cache hits on pass 2."""

    def test_cold_warm_and_preempted_runs_agree(self, tmp_path):
        jobs = spec().jobs()
        # Cold farm run with a mid-run kill of the first job: it exits
        # 75 and must resume byte-identically on another worker.
        report_killed, farm_killed = run_sweep(
            spec(), tmp_path / "killed", num_workers=2,
            preempt={jobs[0].job_id: 40},
        )
        assert farm_killed.to_dict()["preemptions"] == 1
        # Undisturbed cold run in a fresh directory.
        report_cold, _ = run_sweep(spec(), tmp_path / "cold", num_workers=2)
        # Second pass over a fresh queue sharing the cold run's cache:
        # every point must come from cache (>= 90% is the CI floor).
        report_warm, farm_warm = run_sweep(
            spec(), tmp_path / "warm", num_workers=2,
            cache_dir=tmp_path / "cold" / "cache",
        )
        assert farm_warm.to_dict()["cache"]["hit_rate"] >= 0.9
        assert (
            report_json(report_killed)
            == report_json(report_cold)
            == report_json(report_warm)
        )
        fronts = [
            front_json(pareto_front(report))
            for report in (report_killed, report_cold, report_warm)
        ]
        assert fronts[0] == fronts[1] == fronts[2]

    def test_inline_matches_farm(self, tmp_path):
        report_farm, _ = run_sweep(spec(), tmp_path / "farm", num_workers=2)
        cache = ResultCache(tmp_path / "farm" / "cache")
        report_inline_cached = run_inline(spec(), cache=cache)
        report_inline_fresh = run_inline(spec())
        assert (
            report_json(report_farm)
            == report_json(report_inline_cached)
            == report_json(report_inline_fresh)
        )
