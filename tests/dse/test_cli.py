"""End-to-end tests for ``python -m repro dse`` (and the farm
``--pareto-out`` passthrough)."""

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
        assert main(["dse", "submit", "--dir", str(sweep_dir),
                     "--sweep", str(sweep_file)]) == 0
        out = capsys.readouterr().out
        assert "2 point(s)" in out
        assert "gips(max)" in out

        report_path = tmp_path / "report.json"
        assert main(["dse", "run", "--dir", str(sweep_dir),
                     "--report-out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "2 points (2 survived)" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "dse-report/1"

        # report subcommand refolds the same bytes from the directory.
        report2_path = tmp_path / "report2.json"
        assert main(["dse", "report", "--dir", str(sweep_dir),
                     "--out", str(report2_path)]) == 0
        capsys.readouterr()
        assert report_path.read_bytes() == report2_path.read_bytes()

        front_path = tmp_path / "front.json"
        csv_path = tmp_path / "front.csv"
        assert main(["dse", "pareto", "--dir", str(sweep_dir),
                     "--out", str(front_path), "--csv-out", str(csv_path),
                     "--scatter"]) == 0
        out = capsys.readouterr().out
        assert "pareto front" in out
        assert "* front   K knee   . dominated" in out
        front = json.loads(front_path.read_text())
        assert front["schema"] == "pareto-front/1"
        assert front["front"]
        assert csv_path.read_text().startswith("job_id,")

    def test_run_accepts_sweep_and_resumes_from_saved_spec(
        self, tmp_path, sweep_file, capsys
    ):
        sweep_dir = tmp_path / "sweep"
        assert main(["dse", "run", "--dir", str(sweep_dir),
                     "--sweep", str(sweep_file)]) == 0
        capsys.readouterr()
        # Re-run without --sweep: loads sweep.json from the directory;
        # every job is already done so the farm does nothing.
        assert main(["dse", "run", "--dir", str(sweep_dir)]) == 0
        assert "2 points (2 survived)" in capsys.readouterr().out

    def test_report_without_submit_fails_cleanly(self, tmp_path):
        # A directory with no sweep.json is a FarmError, not a traceback.
        from repro.farm import FarmError

        with pytest.raises(FarmError, match="submit a sweep first"):
            main(["dse", "report", "--dir", str(tmp_path / "nope")])

    def test_objective_override_and_validation(self, tmp_path, sweep_file,
                                               capsys):
        sweep_dir = tmp_path / "sweep"
        assert main(["dse", "run", "--dir", str(sweep_dir),
                     "--sweep", str(sweep_file)]) == 0
        capsys.readouterr()
        assert main(["dse", "pareto", "--dir", str(sweep_dir),
                     "--objective", "gips:max", "--json"]) == 0
        front = json.loads(capsys.readouterr().out)
        assert front["objectives"] == [{"key": "gips", "goal": "max"}]
        with pytest.raises(SystemExit, match="bad --objective"):
            main(["dse", "pareto", "--dir", str(sweep_dir),
                  "--objective", "gips:sideways"])


class TestFarmParetoPassthrough:
    def test_farm_report_pareto_out(self, tmp_path, sweep_file, capsys):
        sweep_dir = tmp_path / "sweep"
        assert main(["dse", "run", "--dir", str(sweep_dir),
                     "--sweep", str(sweep_file)]) == 0
        capsys.readouterr()
        front_path = tmp_path / "front.json"
        assert main(["farm", "report",
                     "--dir", str(sweep_dir / "queue"),
                     "--cache-dir", str(sweep_dir / "cache"),
                     "--pareto-out", str(front_path),
                     "--objective", "gips:max",
                     "--objective", "mean_power_w:min"]) == 0
        assert "wrote pareto front" in capsys.readouterr().out
        front = json.loads(front_path.read_text())
        assert front["schema"] == "pareto-front/1"
        assert front["front"]
