"""End-to-end tests for ``python -m repro perf`` and the heartbeat flags.

Pins the gate's contract: ``perf compare`` exits 0 against an unchanged
baseline and 1 on a synthetic 2x slowdown, and ``faults
--heartbeat-every`` streams deterministic JSONL (byte-identical cores
across two same-seed runs).
"""

import json

import pytest

from repro.__main__ import main
from repro.obs.perf import WALL_FIELDS


def write_profile(path, wall_s):
    path.write_text(json.dumps({"benches": [{
        "file": "benchmarks/bench_stream.py",
        "test": "test_throughput",
        "events": 200_000,
        "events_replayed": 0,
        "wall_s": wall_s,
        "events_per_sec": round(200_000 / wall_s),
    }]}))
    return path


class TestPerfCli:
    def seed_history(self, tmp_path, rows=3):
        history = tmp_path / "history.jsonl"
        profile = write_profile(tmp_path / "profile.json", wall_s=1.0)
        for i in range(rows):
            assert main([
                "perf", "record", "--history", str(history),
                "--profile", str(profile), "--timestamp", str(float(i)),
                "--sha", f"sha{i}",
            ]) == 0
        return history, profile

    def test_record_appends(self, tmp_path):
        history, _ = self.seed_history(tmp_path)
        lines = history.read_text().splitlines()
        assert len(lines) == 3
        row = json.loads(lines[0])
        assert row["bench"].endswith("::test_throughput")
        assert row["git_sha"] == "sha0"

    def test_compare_ok_on_committed_baseline(self, tmp_path, capsys):
        history, profile = self.seed_history(tmp_path)
        assert main([
            "perf", "compare", "--history", str(history),
            "--profile", str(profile), "--tolerance", "0.30",
        ]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_compare_fails_on_2x_slowdown(self, tmp_path, capsys):
        history, _ = self.seed_history(tmp_path)
        slow = write_profile(tmp_path / "slow.json", wall_s=2.0)
        assert main([
            "perf", "compare", "--history", str(history),
            "--profile", str(slow), "--tolerance", "0.30",
        ]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_json_output(self, tmp_path, capsys):
        history, _ = self.seed_history(tmp_path)
        slow = write_profile(tmp_path / "slow.json", wall_s=2.0)
        capsys.readouterr()  # drain the seeding prints
        assert main([
            "perf", "compare", "--history", str(history),
            "--profile", str(slow), "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is True
        assert payload["compared"][0]["ratio"] == pytest.approx(0.5)

    def test_compare_without_history_errors(self, tmp_path):
        profile = write_profile(tmp_path / "profile.json", wall_s=1.0)
        assert main([
            "perf", "compare", "--history", str(tmp_path / "none.jsonl"),
            "--profile", str(profile),
        ]) == 2

    def test_report_renders(self, tmp_path, capsys):
        history, _ = self.seed_history(tmp_path)
        assert main(["perf", "report", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "test_throughput" in out and "baseline" in out


class TestHeartbeatCli:
    def faults_heartbeat(self, out):
        assert main([
            "run", "faults_stream", "--params", '{"words": 12, "seed": 3}',
            "--heartbeat-every", "500", "--out", str(out),
        ]) == 0
        beats = (out / "heartbeat.jsonl").read_text()
        return [json.loads(line) for line in beats.splitlines()]

    def test_heartbeat_jsonl_byte_identical_modulo_wall(self, tmp_path):
        runs = [self.faults_heartbeat(tmp_path / f"hb{i}")
                for i in range(2)]
        assert len(runs[0]) >= 2
        assert runs[0][-1]["final"] is True
        strip = [
            [{k: v for k, v in line.items() if k not in WALL_FIELDS}
             for line in run]
            for run in runs
        ]
        assert strip[0] == strip[1]
        # ... and the wall fields really are present on the wire.
        assert all("wall_s" in line for line in runs[0])
