"""Tests for run heartbeats (repro.obs.perf).

RunHeartbeat driven by ResumableRun: cadence, wall fields kept outside
the deterministic core, the byte-identity property (two same-seed runs
emit identical heartbeat cores), and replayed events reported apart
from fresh ones after a resume.
"""

import json

import pytest

from repro.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    ResumableRun,
)
from repro.obs.perf import WALL_FIELDS, RunHeartbeat, heartbeat_core


class TestHeartbeatCore:
    def test_strips_wall_fields_only(self):
        line = {"seq": 1, "events": 10, "wall_s": 0.5,
                "events_per_sec": 20.0, "sim_time_ps": 99}
        core = heartbeat_core(line)
        assert set(core) == {"seq", "events", "sim_time_ps"}
        assert WALL_FIELDS == {"wall_s", "events_per_sec"}


class TestRunHeartbeat:
    """Heartbeats beat from ResumableRun's drive loop."""

    def test_cadence_and_final_beat(self, tmp_path):
        out = tmp_path / "hb.jsonl"
        heartbeat = RunHeartbeat(2500, out=out)
        run = ResumableRun("demo")
        run.run(heartbeat=heartbeat)
        total = run.context.system.sim.events_processed
        assert total == run.events_fresh and total % 2500
        # Mid-run beats at 2500, 5000, ... plus the final closing beat.
        assert [line["events"] for line in heartbeat.lines] == [
            *range(2500, total, 2500), total]
        assert heartbeat.lines[-1]["final"] is True
        assert all(not line["final"] for line in heartbeat.lines[:-1])
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == heartbeat.beats
        assert lines[0]["events"] == 2500

    def test_every_events_validated(self):
        with pytest.raises(ValueError):
            RunHeartbeat(0)

    def test_wall_fields_present_but_outside_core(self):
        heartbeat = RunHeartbeat(5000)
        ResumableRun("demo").run(heartbeat=heartbeat)
        line = heartbeat.lines[0]
        assert "wall_s" in line and "events_per_sec" in line
        assert "wall_s" not in heartbeat_core(line)

    def test_same_seed_runs_byte_identical_cores(self):
        """The acceptance property: two identically-seeded runs emit
        byte-identical heartbeat JSONL once wall fields are stripped."""
        cores = []
        for _ in range(2):
            run = ResumableRun("faults_stream", {"words": 12, "seed": 3})
            heartbeat = RunHeartbeat(500)
            run.run(heartbeat=heartbeat)
            assert heartbeat.beats >= 2
            cores.append(heartbeat.core_jsonl())
        assert cores[0] == cores[1]


class TestReplayTagging:
    def test_resume_reports_replay_separately(self, tmp_path):
        """Kill, resume with a heartbeat, and require replayed events to
        be reported apart from fresh ones (never inflating events/sec)."""
        params = {"words": 12, "seed": 3}
        run = ResumableRun(
            "faults_stream", params,
            policy=CheckpointPolicy(every_events=400, retain=3),
            store=CheckpointStore(tmp_path / "store", retain=3),
        )
        run.run(kill_after_events=1500)
        assert run.killed

        resumed = ResumableRun.resume(
            CheckpointStore(tmp_path / "store", retain=3).latest())
        heartbeat = RunHeartbeat(500)
        report = resumed.run(heartbeat=heartbeat)
        assert report.to_dict()["outcome"] == "completed"

        assert resumed.events_replayed > 0
        # Replayed and fresh events partition the kernel's count.
        assert resumed.events_replayed + resumed.events_fresh == \
            resumed.context.system.sim.events_processed
        # Every heartbeat line carries the replay count alongside the
        # fresh count, so downstream consumers can't conflate them.
        assert heartbeat.lines
        for line in heartbeat.lines:
            assert line["events_replayed"] == resumed.events_replayed
            assert line["events"] <= resumed.events_fresh
