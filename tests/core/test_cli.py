"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import main


class TestInfo:
    def test_single_slice(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cores:            16" in out
        assert "8.0 GIPS" in out

    def test_480_core_machine(self, capsys):
        assert main(["info", "--slices-x", "5", "--slices-y", "6"]) == 0
        out = capsys.readouterr().out
        assert "cores:            480" in out
        assert "240.0 GIPS" in out


class TestTables:
    def test_tables_contain_all_sections(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "10880.0 pJ/bit" in out
        assert "XMOS XS1-L" in out and "YES" in out
        assert "SpiNNaker" in out
        assert "Fig. 2" in out


class TestDemo:
    def test_demo_runs_and_reports(self, capsys):
        assert main(["run", "demo"]) == 0
        out = capsys.readouterr().out
        assert "streamed words: [0, 1, 4, 9]" in out
        assert "Energy report" in out


class TestCheckpointCli:
    STREAM = ["run", "faults_stream", "--params", '{"words": 8, "seed": 3}']

    def test_faults_kill_exits_resumable(self, capsys, tmp_path):
        """--kill-after-events simulates a crash: exit 75 + bundles on disk."""
        store = tmp_path / "store"
        code = main([
            *self.STREAM,
            "--checkpoint-every", "400",
            "--checkpoint-dir", str(store),
            "--kill-after-events", "1200",
        ])
        assert code == 75
        out = capsys.readouterr().out
        assert "killed after 1200 events" in out
        assert list(store.glob("checkpoint-*.json"))

    def test_checkpoint_then_resume_completes(self, capsys, tmp_path):
        """A bundle at exactly N events, then the same command resumes."""
        store = tmp_path / "store"
        flags = ["--params", '{"words": 8, "seed": 1}',
                 "--checkpoint-dir", str(store)]
        assert main([
            "run", "faults_stream", *flags,
            "--checkpoint-every", "900", "--kill-after-events", "900",
        ]) == 75
        capsys.readouterr()
        assert [p.name for p in store.iterdir()] == [
            "checkpoint-000000000900.json"]
        assert main(["run", "faults_stream", *flags]) == 0
        out = capsys.readouterr().out
        assert "@ 900 events, verified" in out
        assert "recovery report: completed" in out
        assert "delivered         8 (intact)" in out

    def test_resume_from_store_matches_uninterrupted(self, capsys, tmp_path):
        """The CI soak flow in miniature: kill, resume from the store,
        and diff the final JSON report against an uninterrupted run."""
        import json

        store = tmp_path / "store"
        out = tmp_path / "out"
        assert main([
            *self.STREAM,
            "--checkpoint-every", "300",
            "--checkpoint-dir", str(store),
            "--kill-after-events", "1000",
        ]) == 75
        capsys.readouterr()
        assert main([
            *self.STREAM, "--checkpoint-dir", str(store), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        resumed = json.loads((out / "report.json").read_text())
        resumed.pop("recovery")

        from repro.checkpoint import build_workload
        reference = build_workload(
            "faults_stream",
            {"slices_x": 1, "slices_y": 1, "words": 8,
             "drop_rate": 0.05, "seed": 3},
        )
        reference.system.run()
        assert (
            json.dumps(resumed, sort_keys=True)
            == json.dumps(reference.final_report(), sort_keys=True)
        )

    def test_resume_refuses_a_store_of_other_params(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main([
            *self.STREAM,
            "--checkpoint-every", "400",
            "--checkpoint-dir", str(store),
            "--kill-after-events", "800",
        ]) == 75
        capsys.readouterr()
        assert main(["run", "faults_stream", "--params", '{"words": 8}',
                     "--checkpoint-dir", str(store)]) == 2
        assert "was recorded for" in capsys.readouterr().err


class TestParsing:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_command_listing(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        listing = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
        assert listing.split(",") == [
            "info", "tables", "isa", "figures", "topology", "topo", "run",
            "sweep",
        ]

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "bogus"])
