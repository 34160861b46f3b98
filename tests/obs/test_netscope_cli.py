"""End-to-end tests for netscope runs: ``repro run`` with ``"netscope": true``.

The CLI contract the docs advertise: exported heat maps and counter
tracks are byte-identical across same-seed runs — including a run that
is killed mid-flight and resumed from its checkpoint store.
"""

import json

from repro.__main__ import main
from repro.checkpoint import EXIT_KILLED

STREAM = {"words": 8, "seed": 7, "netscope": True}


def _netscope(tmp_path, tag, *extra):
    out = tmp_path / tag
    rc = main(["run", "faults_stream", "--params", json.dumps(STREAM),
               "--out", str(out), *extra])
    return (rc, out / "heatmap.json", out / "counters.json",
            out / "slice_cut.json")


class TestNetscopeCli:
    def test_fresh_runs_are_byte_identical(self, tmp_path, capsys):
        rc_a, heat_a, counters_a, cut_a = _netscope(tmp_path, "a")
        assert rc_a == 0
        out = capsys.readouterr().out
        assert "netscope:" in out
        assert "blocked total" in out
        rc_b, heat_b, counters_b, cut_b = _netscope(tmp_path, "b")
        assert rc_b == 0
        assert heat_a.read_bytes() == heat_b.read_bytes()
        assert counters_a.read_bytes() == counters_b.read_bytes()
        assert cut_a.read_bytes() == cut_b.read_bytes()

    def test_kill_resume_matches_uninterrupted(self, tmp_path, capsys):
        rc, reference, _, _ = _netscope(tmp_path, "reference")
        assert rc == 0
        capsys.readouterr()

        store = tmp_path / "store"
        rc, _, _, _ = _netscope(
            tmp_path, "killed",
            "--checkpoint-every", "400", "--checkpoint-dir", str(store),
            "--kill-after-events", "1500",
        )
        assert rc == EXIT_KILLED
        assert "rerun the same command to resume" in capsys.readouterr().out

        rc, resumed, _, _ = _netscope(
            tmp_path, "resumed",
            "--checkpoint-every", "400", "--checkpoint-dir", str(store),
        )
        assert rc == 0
        assert "resumed from" in capsys.readouterr().out
        assert resumed.read_bytes() == reference.read_bytes()

    def test_json_mode_emits_the_heatmap(self, tmp_path, capsys):
        """report.json, the machine-readable output, holds the heat map."""
        params = {"words": 6, "seed": 0, "netscope": True}
        assert main(["run", "faults_stream", "--params", json.dumps(params),
                     "--out", str(tmp_path)]) == 0
        heatmap = json.loads((tmp_path / "report.json").read_text())[
            "netscope"]
        assert heatmap["schema"] == "netscope-heatmap/1"
        blocked = heatmap["blocked"]
        assert blocked["total_ps"] == sum(blocked["by_cause"].values())
        assert heatmap == json.loads((tmp_path / "heatmap.json").read_text())

    def test_ascii_overlay_renders(self, tmp_path, capsys):
        params = {"slices_x": 2, "seed": 0, "netscope": True}
        assert main(["run", "demo", "--params", json.dumps(params)]) == 0
        out = capsys.readouterr().out
        assert "heat ramp" in out
        assert "slice cut:" in out


class TestTopoHeat:
    def test_heat_overlay_is_deterministic(self, capsys):
        """The demo's netscope heat overlay on stdout is deterministic."""
        params = json.dumps({"seed": 3, "netscope": True})
        assert main(["run", "demo", "--params", params]) == 0
        first = capsys.readouterr().out
        assert main(["run", "demo", "--params", params]) == 0
        assert capsys.readouterr().out == first
        assert "heat ramp" in first

    def test_topology_alias_still_draws_the_plain_map(self, capsys):
        assert main(["topology"]) == 0
        assert "=" in capsys.readouterr().out


class TestFarmHeatmapCli:
    def test_farm_report_merges_job_heatmaps(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({
            "workload": "faults_stream",
            "base": {"words": 4, "drop_rate": 0.0, "netscope": True},
            "sweep": {"seed": [0, 1], "slices_x": [1, 2]},
        }))
        sweep = tmp_path / "sweep"
        assert main(["sweep", str(matrix), "--dir", str(sweep),
                     "--checkpoint-every", "200"]) == 0
        assert "heatmap.json" in capsys.readouterr().out

        overlay = json.loads((sweep / "heatmap.json").read_text())
        front = json.loads((sweep / "front.json").read_text())
        assert overlay["schema"] == "dse-fleet-overlay/1"
        assert overlay["front_jobs"] == [p["job_id"] for p in front["front"]]
        assert overlay["knee"] == front["knee"]
        fleet = overlay["fleet"]
        assert fleet["schema"] == "netscope-fleet/1"
        assert fleet["jobs"] == 4
        assert set(fleet["grids"]) == {"1x1", "2x1"}
        for merged in fleet["grids"].values():
            assert merged["merged_from"] == 2

    def test_farm_report_notes_missing_heatmaps(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({
            "workload": "faults_stream",
            "base": {"words": 4, "drop_rate": 0.0},
            "sweep": {"seed": [0]},
        }))
        sweep = tmp_path / "sweep"
        assert main(["sweep", str(matrix), "--dir", str(sweep),
                     "--workers", "1", "--checkpoint-every", "200"]) == 0
        assert "heatmap.json" not in capsys.readouterr().out
        assert not (sweep / "heatmap.json").exists()
