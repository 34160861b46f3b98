"""End-to-end tests for ``python -m repro run WORKLOAD``.

One command runs every registered workload on the resumable-run loop.
Its contract: a run killed mid-flight and rerun with the same command
resumes from its checkpoint store and writes the same ``report.json``
(recovery aside) and the same netscope exports as an uninterrupted run;
a store recorded for another workload is refused, one that differs only
by the ``masked`` a rollback added is resumed.
"""

import json

import pytest

from repro.__main__ import main
from repro.checkpoint import EXIT_KILLED, WORKLOADS, CheckpointStore

#: Per registered workload: (params, checkpoint cadence, kill point).
#: Every workload must be listed, so a new one joins the test.
RESUMABLE = {
    "demo": ({"seed": 5}, 1000, 4000),
    "faults_stream": ({"words": 12, "seed": 3}, 400, 1500),
    "pipeline": ({"seed": 5}, 500, 2000),
    "policy_rt": ({"policy": "kfault", "k": 1, "kills": 1, "tasks": 8,
                   "kill_from_us": 5.0}, 10000, 40000),
    "watchdog_stream": ({"words": 24, "seed": 0}, 500, 1500),
}

NETSCOPE_FILES = ("heatmap.json", "counters.json", "slice_cut.json")


def run_cli(workload, params, *extra) -> int:
    return main(["run", workload, "--params", json.dumps(params), *extra])


def report_without_recovery(out) -> dict:
    report = json.loads((out / "report.json").read_text())
    report.pop("recovery")
    return report


class TestEveryWorkload:
    def test_every_workload_is_covered(self):
        assert set(RESUMABLE) == set(WORKLOADS)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_kill_resume_matches_fresh(self, workload, tmp_path, capsys):
        params, every, kill = RESUMABLE[workload]
        params = dict(params, netscope=True)
        fresh = tmp_path / "fresh"
        assert run_cli(workload, params, "--out", str(fresh)) == 0
        capsys.readouterr()

        store = tmp_path / "store"
        resumed = tmp_path / "resumed"
        checkpointing = ("--checkpoint-every", str(every),
                         "--checkpoint-dir", str(store),
                         "--out", str(resumed))
        assert run_cli(workload, params, *checkpointing,
                       "--kill-after-events", str(kill)) == EXIT_KILLED
        assert "rerun the same command to resume" in capsys.readouterr().out
        assert not (resumed / "report.json").exists()
        assert run_cli(workload, params, *checkpointing) == 0
        assert "resumed from" in capsys.readouterr().out

        assert report_without_recovery(resumed) == \
            report_without_recovery(fresh)
        for name in NETSCOPE_FILES:
            assert (resumed / name).read_bytes() == (fresh / name).read_bytes()


class TestResumeGuard:
    def killed_store(self, tmp_path, workload="faults_stream",
                     params=None, every=400, kill=1200):
        store = tmp_path / "store"
        assert run_cli(workload, params or {"words": 8, "seed": 3},
                       "--checkpoint-every", str(every),
                       "--checkpoint-dir", str(store),
                       "--kill-after-events", str(kill)) == EXIT_KILLED
        return store

    def test_refuses_other_workload(self, tmp_path, capsys):
        store = self.killed_store(tmp_path)
        capsys.readouterr()
        assert run_cli("watchdog_stream", {"words": 8, "seed": 3},
                       "--checkpoint-dir", str(store)) == 2
        assert "'faults_stream'" in capsys.readouterr().err

    def test_accepts_the_masked_a_rollback_added(self, tmp_path, capsys):
        # The livelocked stream rolls back after 1990 fresh events,
        # before its first checkpoint, so it restarts masked from t=0;
        # the kill point counts fresh events across the rollback and
        # lands 2510 events into the restart, after its first bundle,
        # so the newest bundle's params carry "masked" and the
        # command's do not.
        params = {"words": 24, "seed": 0}
        store = self.killed_store(tmp_path, "watchdog_stream", params,
                                  every=2000, kill=4500)
        capsys.readouterr()
        newest = CheckpointStore(store).latest()
        assert newest.setup["params"] == dict(params, masked=[0])
        out = tmp_path / "out"
        assert run_cli("watchdog_stream", params,
                       "--checkpoint-dir", str(store),
                       "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["delivered_ok"] is True
        assert report["recovery"]["masked"] == [0]


class TestBadInput:
    @pytest.mark.parametrize("text", ["{nope", "[1, 2]"])
    def test_bad_params_json(self, text, capsys):
        assert main(["run", "demo", "--params", text]) == 2
        assert "--params" in capsys.readouterr().err

    def test_misspelt_param(self, capsys):
        assert run_cli("faults_stream", {"wrods": 8}) == 2
        assert "wrods" in capsys.readouterr().err

    def test_unknown_observer(self):
        with pytest.raises(SystemExit):
            main(["run", "demo", "--observe", "trace,flame"])

    def test_undelivered_stream_exits_1(self, tmp_path, capsys):
        # The producer's core dies after the first word.
        params = {"words": 4, "seed": 1, "faults": [
            {"kind": "core_kill", "at_us": 1.0, "node_id": 0},
        ]}
        assert run_cli("faults_stream", params) == 1
        assert "CORRUPTED" in capsys.readouterr().out

    def test_exhausted_run_prints_its_report_and_exits_1(self, capsys):
        # A kill against a fault budget of 0: the model raises
        # ResourceError, and the run ends exhausted instead of crashing.
        params = {"policy": "least_loaded", "k": 0, "kills": 1, "seed": 1,
                  "kill_from_us": 5.0, "kill_every_us": 6.0}
        assert run_cli("policy_rt", params) == 1
        out = capsys.readouterr().out
        assert "Energy report" in out
        assert "recovery report: exhausted" in out
        assert "fault budget exhausted" in out


class TestExports:
    def test_observe_trace_and_profile(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "demo", "--observe", "trace,profile",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "recorded" in stdout and "trace records" in stdout
        trace = json.loads((out / "trace.json").read_text())
        assert trace["traceEvents"]
        assert (out / "profile.folded").read_text().strip()
        meta = json.loads((out / "meta_trace.json").read_text())
        assert meta["traceEvents"]
        for name in ("trace.json", "profile.folded", "meta_trace.json",
                     "report.json"):
            assert f"wrote {out / name}" in stdout

    def test_span_workload_writes_span_exports(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "pipeline", "--observe", "trace",
                     "--out", str(out)]) == 0
        assert "pipeline" in capsys.readouterr().out
        spans = [json.loads(line) for line in
                 (out / "spans.jsonl").read_text().splitlines()]
        assert any(row.get("name") == "pipeline" for row in spans)
        attribution = json.loads((out / "attribution.json").read_text())
        assert attribution
        assert "pipeline;relay " in (out / "energy.folded").read_text()
        trace = json.loads((out / "trace.json").read_text())
        assert any(event.get("ph") in ("s", "f")
                   for event in trace["traceEvents"])

    def test_no_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "demo", "--observe", "trace,profile"]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
