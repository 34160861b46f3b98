"""The policy-zoo ablation: the tracked ``examples/policy_zoo.json``
sweep spec over ``policy_rt``, its scoring and byte identity."""

import json
from pathlib import Path

from repro.dse import SweepSpec, report_json, run_inline, run_sweep
from repro.dse.report import SCHEMA, render
from repro.farm import ResultCache

ZOO = Path(__file__).resolve().parents[2] / "examples" / "policy_zoo.json"

CAMPAIGN = {"seed": 1, "kills": 1, "kill_from_us": 5.0, "kill_every_us": 5.0}


def zoo(base=None, **axes) -> SweepSpec:
    """The tracked zoo spec, with some axes (and the base) replaced."""
    data = json.loads(ZOO.read_text())
    data["sweep"].update(axes)
    if base is not None:
        data["base"] = base
    return SweepSpec.from_dict(data)


def small() -> SweepSpec:
    return zoo(policy=["least_loaded", "kfault"], campaign=[CAMPAIGN], k=[1])


class TestMatrix:
    def test_campaign_axis_bundles_into_params(self):
        jobs = small().jobs()
        assert len(jobs) == 2
        for spec in jobs:
            assert spec.workload == "policy_rt"
            assert "campaign" not in spec.params
            assert spec.params["seed"] == 1
            assert spec.params["kills"] == 1
            assert spec.params["k"] == 1

    def test_base_params_reach_every_job(self):
        spec = zoo(base={"tasks": 8})
        assert all(job.params["tasks"] == 8 for job in spec.jobs())

    def test_matrix_order_is_deterministic(self):
        first = [job.job_id for job in zoo().jobs()]
        second = [job.job_id for job in zoo().jobs()]
        assert first == second
        assert len(first) == 7 * 3 * 3
        # The zoo scores deadline misses against energy.
        assert [obj.key for obj in zoo().objectives] == [
            "deadline_miss_rate", "total_energy_j",
        ]


class TestScoring:
    def test_cell_scores_all_three_axes(self):
        report = run_inline(zoo(policy=["kfault"], campaign=[CAMPAIGN],
                                k=[1]))
        cell = report["cells"][0]
        metrics = cell["metrics"]
        assert cell["params"]["policy"] == "kfault"
        assert cell["survived"] is True and cell["exhausted"] is None
        assert metrics["deadline_miss_rate"] is not None
        assert metrics["total_energy_j"] > 0
        assert metrics["deadline_hit"] + metrics["deadline_miss"] > 0

    def test_budget_exhaustion_scores_as_failure(self, tmp_path):
        # Two kills against a budget of one: the run ends exhausted, and
        # the farm caches that as a result, scored survived: false with
        # its error text, energy and deadline counts.
        spec = zoo(policy=["least_loaded"], k=[1], campaign=[
            dict(CAMPAIGN, kills=2),
        ])
        report, farm = run_sweep(spec, tmp_path / "sweep", num_workers=1)
        assert farm.to_dict()["counts"]["done"] == 1
        cell = report["cells"][0]
        assert cell["survived"] is False
        assert "fault budget exhausted" in cell["exhausted"]
        assert cell["metrics"]["total_energy_j"] > 0
        assert cell["metrics"]["deadline_shed"] == 0
        assert report["summary"]["exhausted"] == 1
        cached = ResultCache(tmp_path / "sweep" / "cache").get(
            spec.jobs()[0].digest)
        assert cached["report"]["exhausted"] == cell["exhausted"]


class TestReport:
    def test_report_is_byte_identical_across_runs(self):
        first = run_inline(small())
        second = run_inline(small())
        assert first["digest"] == second["digest"]
        assert report_json(first) == report_json(second)

    def test_report_shape_and_summary(self):
        report = run_inline(small())
        assert report["schema"] == SCHEMA
        assert len(report["cells"]) == 2
        assert sorted(c["params"]["policy"] for c in report["cells"]) == [
            "kfault", "least_loaded",
        ]
        assert report["summary"]["survived"] == 2
        parsed = json.loads(report_json(report))
        assert parsed["digest"] == report["digest"]
        rendered = render(report)
        assert "kfault" in rendered and "least_loaded" in rendered
        assert "deadline_miss_rate" in rendered


class TestCLI:
    def test_policies_command_writes_canonical_report(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = tmp_path / "zoo.json"
        spec.write_text(json.dumps(zoo(
            base={"tasks": 8}, policy=["edf", "kfault"], campaign=[CAMPAIGN],
            k=[1]).to_dict()))
        assert main(["sweep", str(spec), "--dir", str(tmp_path / "z")]) == 0
        report = json.loads((tmp_path / "z" / "report.json").read_text())
        assert report["schema"] == SCHEMA
        assert [c["params"]["policy"] for c in report["cells"]] == [
            "edf", "kfault",
        ]
        out = capsys.readouterr().out
        assert "kfault" in out and "deadline_miss_rate" in out
