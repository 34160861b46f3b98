"""End-to-end tests for ``python -m repro sweep``: the folded report,
its front and the directory's fixed-name exports."""

import json

import pytest

from repro.__main__ import main

SWEEP = {
    "workload": "demo",
    "sweep": {"topology": ["lattice", "mesh"], "seed": [1]},
}


@pytest.fixture
def sweep_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP))
    return path


class TestDseCli:
    def test_submit_run_report_pareto(self, tmp_path, sweep_file, capsys):
        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", str(sweep_file), "--dir", str(sweep_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 points (2 survived, 0 exhausted, 0 failed)" in out
        assert "gips(max)" in out
        assert "pareto front" in out
        assert "* front   K knee   . dominated" in out
        assert ("wrote report.json, front.json, front.csv, timeline.json, "
                f"farm.json to {sweep_dir}") in out

        report = json.loads((sweep_dir / "report.json").read_text())
        assert report["schema"] == "dse-report/2"
        front = json.loads((sweep_dir / "front.json").read_text())
        assert front["schema"] == "pareto-front/1"
        assert front["front"]
        assert (sweep_dir / "front.csv").read_text().startswith("job_id,")
        timeline = json.loads((sweep_dir / "timeline.json").read_text())
        spans = [e for e in timeline["traceEvents"] if e["ph"] == "X"]
        assert [e["args"]["job_id"] for e in spans] == \
            [c["job_id"] for c in report["cells"]]
        assert not (sweep_dir / "heatmap.json").exists()  # no netscope

    def test_run_accepts_sweep_and_resumes_from_saved_spec(
        self, tmp_path, sweep_file, capsys
    ):
        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", str(sweep_file), "--dir", str(sweep_dir)]) == 0
        capsys.readouterr()
        first = (sweep_dir / "report.json").read_bytes()
        # Re-run without SPEC: loads sweep.json from the directory;
        # every job is already done so the farm does nothing.
        assert main(["sweep", "--dir", str(sweep_dir)]) == 0
        assert "2 points (2 survived" in capsys.readouterr().out
        assert (sweep_dir / "report.json").read_bytes() == first

    def test_report_without_submit_fails_cleanly(self, tmp_path, capsys):
        # --status on a directory no sweep was submitted to: exit 2,
        # no traceback, nothing created.
        missing = tmp_path / "nope"
        assert main(["sweep", "--dir", str(missing), "--status"]) == 2
        assert "submit a sweep first" in capsys.readouterr().err
        assert not missing.exists()

    def test_objective_override_and_validation(self, tmp_path, capsys):
        # Objectives live in the spec: they name the front's axes and
        # the report table's metric columns.
        spec = tmp_path / "gips.json"
        spec.write_text(json.dumps(dict(
            SWEEP, objectives=[{"key": "gips", "goal": "max"}])))
        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", str(spec), "--dir", str(sweep_dir)]) == 0
        out = capsys.readouterr().out
        assert "mean_power_w" not in out.split("pareto front")[0]
        front = json.loads((sweep_dir / "front.json").read_text())
        assert front["objectives"] == [{"key": "gips", "goal": "max"}]

        spec.write_text(json.dumps(dict(
            SWEEP, objectives=[{"key": "gips", "goal": "sideways"}])))
        assert main(["sweep", str(spec), "--dir",
                     str(tmp_path / "bad")]) == 2
        assert "sideways" in capsys.readouterr().err
