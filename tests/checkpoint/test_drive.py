"""Differential test: the chunked drive against a one-event-at-a-time drive.

:meth:`ResumableRun._drive` drains the kernel in chunks that end at
the next time mark and at the nearest heartbeat, checkpoint or kill
mark.  :class:`StepRun` keeps the reference: it steps one event per
Python iteration and runs every check after every event.  Both drive
the same scenarios (event and time cadences, heartbeats, marks that
coincide, kills plus resume, watchdog rollbacks) and must leave the
same bundles on disk, the same retained snapshots, heartbeat cores,
fresh-event counts, recovery JSON (which carries the fresh and replayed
counts) and final reports.
"""

import pytest

from repro.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    ResumableRun,
    canonical_json,
)
from repro.obs.perf import RunHeartbeat
from repro.obs.trace_export import to_jsonl
from repro.sim import us


class StepRun(ResumableRun):
    """The reference drive: one kernel event per Python iteration."""

    def _drive(self, kill_after_events=None):
        sim = self.context.system.sim
        while True:
            head = sim.next_event_time()
            if head is None:
                return
            if (
                self._next_time_mark is not None
                and head > self._next_time_mark
            ):
                self.checkpoint()
                while head > self._next_time_mark:
                    self._next_time_mark += us(self.policy.every_us)
                continue
            if not sim.step():
                return
            self.events_fresh += 1
            heartbeat = self._heartbeat
            if (
                heartbeat is not None
                and self.events_fresh >= self._beat_mark
            ):
                heartbeat.beat(
                    sim,
                    events=self.events_fresh,
                    events_replayed=self.events_replayed,
                    checkpoints=self.captures,
                )
                self._beat_mark += heartbeat.every_events
            if (
                self._next_events_mark is not None
                and sim.events_processed >= self._next_events_mark
            ):
                self.checkpoint()
                self._next_events_mark += self.policy.every_events
            if (
                kill_after_events is not None
                and self.events_fresh >= kill_after_events
                and sim.next_event_time() is not None
            ):
                self.killed = True
                return


STREAM = ("faults_stream", {"words": 12, "seed": 3})
WATCHDOG = ("watchdog_stream", {"words": 24, "seed": 0})

#: id -> (workload, params, policy kwargs, heartbeat cadence, kill point)
SCENARIOS = {
    "events-cadence": (*STREAM, {"every_events": 400}, None, None),
    "time-cadence": (*STREAM, {"every_us": 250.0}, None, None),
    "both-cadences": (*STREAM, {"every_events": 300, "every_us": 400.0},
                      None, None),
    "heartbeat": ("demo", {"seed": 3}, {"every_events": 700}, 500, None),
    # Heartbeat, checkpoint and kill all fall due at event 1200.
    "shared-marks-kill": (*STREAM, {"every_events": 400}, 300, 1200),
    "kill-resume": (*STREAM, {"every_events": 400, "every_us": 600.0},
                    250, 1500),
    "time-cadence-kill": ("pipeline", {"seed": 5}, {"every_us": 0.5}, None,
                          2000),
    "rollback-to-checkpoint": (*WATCHDOG, {"every_us": 6.0, "retain": 16},
                               None, None),
    "rollback-restart": (*WATCHDOG, {"every_us": 6.0, "retain": 1}, 400,
                         None),
    "rollback-then-kill": (*WATCHDOG, {"every_events": 2000}, 300, 2500),
    # The CLI's `run watchdog_stream --checkpoint-every 400
    # --kill-after-events 2000`: the rollback comes before event 2000,
    # and the kill still fires on the run's 2000th fresh event.
    "rollback-kill-counts-fresh": (*WATCHDOG, {"every_events": 400}, None,
                                   2000),
    "policy-kills": ("policy_rt", {"policy": "kfault", "k": 1, "kills": 1,
                                   "tasks": 8, "kill_from_us": 5.0},
                     {"every_events": 9000, "every_us": 7.0}, 5000, 30000),
}


def attempt(run, kill, every_beat):
    heartbeat = None
    if every_beat is not None:
        heartbeat = RunHeartbeat(every_beat)
    recovery = run.run(kill_after_events=kill, heartbeat=heartbeat)
    return {
        "recovery": recovery.to_json(),
        "events_fresh": run.events_fresh,
        "retained": [snap.to_json() for snap in run.snapshots],
        "heartbeat": heartbeat.core_jsonl() if heartbeat else None,
    }


def observe(cls, scenario, directory):
    """Everything a drive leaves behind, kill and resume included."""
    workload, params, policy_kw, every_beat, kill = scenario
    policy = CheckpointPolicy(**policy_kw)
    store = CheckpointStore(directory, retain=policy.retain)
    run = cls(workload, params, policy=policy, store=store)
    attempts = [attempt(run, kill, every_beat)]
    if run.killed:
        run = cls.open(workload, params, policy=policy,
                       store=CheckpointStore(directory,
                                             retain=policy.retain))
        attempts.append(attempt(run, None, every_beat))
    assert not run.killed
    return {
        "attempts": attempts,
        "final": canonical_json(run.final_report()),
        "bundles": {path.name: path.read_bytes() for path in store.paths()},
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chunked_drive_matches_step_drive(name, tmp_path):
    scenario = SCENARIOS[name]
    chunked = observe(ResumableRun, scenario, tmp_path / "chunked")
    stepped = observe(StepRun, scenario, tmp_path / "stepped")
    assert chunked["bundles"], "scenario took no checkpoint"
    for key in ("attempts", "final", "bundles"):
        assert chunked[key] == stepped[key], key


def test_scenarios_exercise_what_they_name(tmp_path):
    """The rollback, kill and heartbeat paths are really taken."""
    import json

    outcomes = {}
    for name, scenario in SCENARIOS.items():
        observed = observe(ResumableRun, scenario, tmp_path / name)
        outcomes[name] = [json.loads(a["recovery"])
                          for a in observed["attempts"]]
    for name in ("rollback-to-checkpoint", "rollback-restart",
                 "rollback-then-kill", "rollback-kill-counts-fresh"):
        assert outcomes[name][0]["rollbacks"] == 1, name
    assert outcomes["rollback-to-checkpoint"][0]["attempts"][0][
        "resumed_from"] is not None
    assert outcomes["rollback-restart"][0]["attempts"][0][
        "resumed_from"] is None
    for name in ("shared-marks-kill", "kill-resume", "time-cadence-kill",
                 "rollback-then-kill", "rollback-kill-counts-fresh",
                 "policy-kills"):
        assert [o["outcome"] for o in outcomes[name]] == \
            ["killed", "completed"], name


@pytest.mark.parametrize("cls", [ResumableRun, StepRun])
def test_rollback_hands_observers_to_rebuilt_system(cls):
    """Observers attached once, to the system the run opened, see the
    whole run when a rollback restarts it from t=0 on a rebuilt system:
    the trace, the profile and the heartbeat's metrics all follow it."""
    workload, params = WATCHDOG
    run = cls(workload, params)
    tracer = run.context.system.trace()
    heartbeat = RunHeartbeat(500)
    with run.context.system.sim.profile() as profile:
        recovery = run.run(heartbeat=heartbeat).to_dict()
    assert recovery["rollbacks"] == 1
    assert recovery["attempts"][0]["resumed_from"] is None

    fresh = ResumableRun(workload, dict(params, masked=[0]))
    fresh_tracer = fresh.context.system.trace()
    fresh.run()
    assert fresh.rollbacks == 0
    events = fresh.context.system.sim.events_processed
    assert events == recovery["final"]["events_processed"] == 3562

    # The first attempt's records, then the masked run's byte for byte.
    assert (len(tracer), len(fresh_tracer)) == (778 + 1394, 1394)
    assert to_jsonl(tracer.records[778:]) == fresh_tracer.to_jsonl()
    # Both attempts' events: 1991 before the rollback, then the rerun.
    assert profile.events_total == 1991 + events
    # Every beat reads the metrics of the system being driven, so the
    # deltas telescope to the rebuilt kernel's event count.
    assert len(heartbeat.lines) == 12
    assert all(line["metrics_delta"] for line in heartbeat.lines)
    assert sum(line["metrics_delta"].get("sim.events_processed", 0)
               for line in heartbeat.lines) == events
    assert canonical_json(run.final_report()) == \
        canonical_json(fresh.final_report())
