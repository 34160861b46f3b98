"""Tests for the perf observatory (repro.obs.perf).

Covers the three ledger layers: PerfRecord/PerfHistory roundtrips, the
rolling-baseline regression detector (no-change, improvement, and the
synthetic 2x slowdown that must fire), and RunHeartbeat driven by
ResumableRun — including the byte-identity property: two same-seed runs
emit identical deterministic heartbeat cores.
"""

import json

import pytest

from repro.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    ResumableRun,
)
from repro.obs.perf import (
    WALL_FIELDS,
    Comparison,
    PerfHistory,
    PerfRecord,
    RunHeartbeat,
    compare_against_history,
    config_digest,
    heartbeat_core,
    records_from_profile,
    render_history_report,
)
from repro.sim.engine import KERNEL_STATS


def make_record(bench="bench_x::test_y", eps=100_000.0, events=500_000,
                timestamp=1_000.0, sha="abc123"):
    return PerfRecord(
        bench=bench, events=events, wall_s=events / eps,
        timestamp=timestamp, git_sha=sha,
    )


class TestPerfRecord:
    def test_roundtrip(self):
        record = make_record()
        again = PerfRecord.from_dict(record.to_dict())
        assert again.bench == record.bench
        assert again.events == record.events
        assert again.wall_s == pytest.approx(record.wall_s)
        assert again.git_sha == "abc123"

    def test_events_per_sec(self):
        record = make_record(eps=250_000.0)
        assert record.events_per_sec == pytest.approx(250_000.0)
        zero = PerfRecord(bench="b", events=10, wall_s=0.0, timestamp=0.0)
        assert zero.events_per_sec == 0.0

    def test_config_digest_is_stable(self):
        a = config_digest({"x": 1, "y": 2})
        b = config_digest({"y": 2, "x": 1})
        assert a == b and len(a) == 16

    def test_records_from_profile_threshold(self):
        profile = {"benches": [
            {"file": "f.py", "test": "big", "events": 50_000, "wall_s": 0.5},
            {"file": "f.py", "test": "tiny", "events": 3, "wall_s": 0.001},
        ]}
        records = records_from_profile(profile, timestamp=1.0,
                                       min_events=1_000)
        assert [r.bench for r in records] == ["f.py::big"]


class TestPerfHistory:
    def test_append_load_roundtrip(self, tmp_path):
        history = PerfHistory(tmp_path / "out" / "history.jsonl")
        history.append(make_record(timestamp=1.0))
        history.extend([make_record(timestamp=2.0, eps=110_000.0)])
        loaded = history.load()
        assert [r.timestamp for r in loaded] == [1.0, 2.0]
        # Append-only: the file grows, rows never rewrite.
        assert len(history.path.read_text().splitlines()) == 2

    def test_baseline_is_rolling_median(self, tmp_path):
        history = PerfHistory(tmp_path / "h.jsonl")
        for eps in (100.0, 200.0, 300.0, 400.0, 500.0, 600.0):
            history.append(make_record(eps=eps, events=6_000))
        assert history.baseline("bench_x::test_y", window=5) == \
            pytest.approx(400.0)
        assert history.baseline("never_seen") is None

    def test_baseline_with_zero_sessions_is_none(self, tmp_path):
        history = PerfHistory(tmp_path / "h.jsonl")
        assert history.baseline("bench_x::test_y") is None
        history.append(make_record(bench="other::bench"))
        assert history.baseline("bench_x::test_y") is None

    def test_baseline_with_one_session_is_that_session(self, tmp_path):
        history = PerfHistory(tmp_path / "h.jsonl")
        history.append(make_record(eps=123_456.0))
        assert history.baseline("bench_x::test_y") == \
            pytest.approx(123_456.0)

    def test_baseline_with_two_sessions_is_midpoint(self, tmp_path):
        history = PerfHistory(tmp_path / "h.jsonl")
        history.append(make_record(eps=100_000.0))
        history.append(make_record(eps=300_000.0))
        assert history.baseline("bench_x::test_y") == \
            pytest.approx(200_000.0)

    def test_empty_history(self, tmp_path):
        history = PerfHistory(tmp_path / "absent.jsonl")
        assert history.load() == []
        assert "empty" in render_history_report(history)


class TestRegressionDetector:
    def seeded_history(self, tmp_path, eps=100_000.0, rows=5):
        history = PerfHistory(tmp_path / "h.jsonl")
        for i in range(rows):
            history.append(make_record(eps=eps, timestamp=float(i)))
        return history

    def test_no_change_passes(self, tmp_path):
        history = self.seeded_history(tmp_path)
        comparisons, unseen = compare_against_history(
            history, [make_record(eps=100_000.0)], tolerance=0.30)
        assert not unseen
        assert len(comparisons) == 1
        assert not comparisons[0].regressed
        assert comparisons[0].ratio == pytest.approx(1.0)

    def test_improvement_passes(self, tmp_path):
        history = self.seeded_history(tmp_path)
        comparisons, _ = compare_against_history(
            history, [make_record(eps=180_000.0)], tolerance=0.30)
        assert not comparisons[0].regressed
        assert comparisons[0].ratio > 1.5

    def test_2x_slowdown_fires(self, tmp_path):
        history = self.seeded_history(tmp_path)
        comparisons, _ = compare_against_history(
            history, [make_record(eps=50_000.0)], tolerance=0.30)
        assert comparisons[0].regressed
        assert "REGRESSED" in comparisons[0].render()

    def test_noise_within_tolerance_passes(self, tmp_path):
        history = self.seeded_history(tmp_path)
        comparisons, _ = compare_against_history(
            history, [make_record(eps=75_000.0)], tolerance=0.30)
        assert not comparisons[0].regressed

    def test_new_bench_is_unseen_not_gated(self, tmp_path):
        history = self.seeded_history(tmp_path)
        comparisons, unseen = compare_against_history(
            history, [make_record(bench="brand::new", eps=10.0)])
        assert not comparisons
        assert [r.bench for r in unseen] == ["brand::new"]

    def test_small_benches_skipped(self, tmp_path):
        history = self.seeded_history(tmp_path)
        comparisons, unseen = compare_against_history(
            history, [make_record(events=5, eps=1.0)], min_events=10_000)
        assert not comparisons and not unseen

    def test_report_renders_trajectory(self, tmp_path):
        history = self.seeded_history(tmp_path)
        text = render_history_report(history)
        assert "bench_x::test_y" in text
        assert "baseline" in text


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
            heartbeat = RunHeartbeat(
                500, metrics=run.context.system.metrics)
            run.run(heartbeat=heartbeat)
            assert heartbeat.beats >= 2
            cores.append(heartbeat.core_jsonl())
        assert cores[0] == cores[1]


class TestReplayTagging:
    def test_resume_reports_replay_separately(self, tmp_path):
        """Kill, resume with a heartbeat, and require replayed events to
        be ledgered apart from fresh ones (never inflating events/sec)."""
        params = {"words": 12, "seed": 3}
        run = ResumableRun(
            "faults_stream", params,
            policy=CheckpointPolicy(every_events=400, retain=3),
            store=CheckpointStore(tmp_path / "store", retain=3),
        )
        run.run(kill_after_events=1500)
        assert run.killed

        replayed_before = KERNEL_STATS.events_replayed
        executed_before = KERNEL_STATS.events_executed
        resumed = ResumableRun.resume(
            CheckpointStore(tmp_path / "store", retain=3).latest())
        heartbeat = RunHeartbeat(500)
        report = resumed.run(heartbeat=heartbeat)
        assert report.to_dict()["outcome"] == "completed"

        assert resumed.events_replayed > 0
        assert KERNEL_STATS.events_replayed - replayed_before == \
            resumed.events_replayed
        # Replayed events never land in the fresh-events ledger.
        assert KERNEL_STATS.events_executed - executed_before == \
            resumed.events_fresh
        # Every heartbeat line carries the replay count alongside the
        # fresh count, so downstream consumers can't conflate them.
        assert heartbeat.lines
        for line in heartbeat.lines:
            assert line["events_replayed"] == resumed.events_replayed
            assert line["events"] <= resumed.events_fresh
