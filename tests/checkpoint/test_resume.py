"""The byte-identity property: snapshot + resume == uninterrupted run.

For each seeded workload we run an uninterrupted reference, then the
same configuration checkpointed and killed mid-run, resume it from the
newest bundle, and require the final report — energy report, metrics
snapshot, delivered payload, and a digest of the *entire* system state
tree — to be byte-for-byte identical.
"""

import pytest

from repro.checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    CheckpointStore,
    ResumableRun,
    build_workload,
    canonical_json,
)

#: (workload, params, kill point) — the ≥3 seeded byte-identity cases,
#: including one with an armed FaultCampaign and one under watchdog
#: supervision with a mid-run injection.
CASES = [
    ("demo", {"seed": 5}, 5000),
    ("faults_stream", {"words": 12, "seed": 3}, 1500),
    ("faults_stream", {"words": 8, "seed": 11, "drop_rate": 0.10}, 900),
    ("watchdog_stream",
     {"words": 24, "seed": 0, "fault_at_us": 5000.0}, 2000),
]

IDS = [f"{name}-seed{params['seed']}-kill{kill}"
       for name, params, kill in CASES]


def reference_report(workload: str, params: dict) -> str:
    context = build_workload(workload, params)
    context.system.run()
    return canonical_json(context.final_report())


class TestByteIdentity:
    @pytest.mark.parametrize("workload,params,kill", CASES, ids=IDS)
    def test_kill_resume_matches_uninterrupted(
        self, tmp_path, workload, params, kill
    ):
        expected = reference_report(workload, params)

        run = ResumableRun(
            workload, params,
            policy=CheckpointPolicy(every_events=400, retain=3),
            store=CheckpointStore(tmp_path / "store", retain=3),
        )
        report = run.run(kill_after_events=kill)
        assert run.killed
        assert report.to_dict()["outcome"] == "killed"

        # Resume from disk — schema and digest validated on load.
        resumed = ResumableRun.resume(
            CheckpointStore(tmp_path / "store", retain=3).latest()
        )
        final = resumed.run()
        assert final.to_dict()["outcome"] == "completed"
        assert canonical_json(resumed.final_report()) == expected

    def test_resume_replays_through_verification(self, tmp_path):
        """Resume verifies the replay field-by-field before continuing."""
        run = ResumableRun(
            "faults_stream", {"words": 8, "seed": 1},
            policy=CheckpointPolicy(every_events=500, retain=2),
        )
        run.run(kill_after_events=1200)
        bundle = run.snapshots[-1]
        resumed = ResumableRun.resume(bundle)
        sim = resumed.context.system.sim
        assert sim.events_processed == bundle.events_processed
        assert sim.now == bundle.time_ps

    def test_resume_with_wrong_setup_fails_loudly(self):
        """A bundle whose recorded setup rebuilds a different trajectory
        must fail verification, not silently continue."""
        import json

        from repro.checkpoint import Snapshot, content_digest

        run = ResumableRun(
            "faults_stream", {"words": 8, "seed": 1},
            policy=CheckpointPolicy(every_events=500, retain=2),
        )
        run.run(kill_after_events=1200)
        payload = json.loads(run.snapshots[-1].to_json())
        # Forge a bundle: different seed in the setup, digest re-signed.
        payload["setup"]["params"]["seed"] = 2
        body = {k: v for k, v in payload.items() if k != "digest"}
        payload["digest"] = content_digest(body)
        forged = Snapshot.from_json(json.dumps(payload))
        with pytest.raises(Exception):
            ResumableRun.resume(forged)

    def test_setupless_bundle_is_not_resumable(self):
        context = build_workload("demo", {"seed": 5})
        context.system.sim.run(max_events=50)
        snapshot = context.capture()        # no setup recorded
        with pytest.raises(CheckpointError, match="no workload setup"):
            ResumableRun.resume(snapshot)


class TestExhausted:
    PARAMS = {"policy": "least_loaded", "k": 0, "kills": 1, "seed": 1,
              "kill_from_us": 5.0, "kill_every_us": 6.0}

    def test_resource_error_ends_the_run_exhausted(self, tmp_path):
        """A ResourceError out of the model (here a fault budget of 0
        meeting a core kill) is an outcome, and a killed-and-resumed run
        reaches the same exhausted report byte for byte."""
        run = ResumableRun("policy_rt", self.PARAMS)
        assert run.run().to_dict()["outcome"] == "exhausted"
        report = run.final_report()
        assert "fault budget exhausted" in report["exhausted"]
        assert report["energy"]["total_energy_j"] > 0
        expected = canonical_json(report)

        store = CheckpointStore(tmp_path / "store")
        policy = CheckpointPolicy(every_events=10_000)
        killed = ResumableRun("policy_rt", self.PARAMS, policy=policy,
                              store=store)
        assert killed.run(kill_after_events=20_000).to_dict()[
            "outcome"] == "killed"
        resumed = ResumableRun.open("policy_rt", self.PARAMS, policy=policy,
                                    store=store)
        assert resumed.run().to_dict()["outcome"] == "exhausted"
        assert canonical_json(resumed.final_report()) == expected

