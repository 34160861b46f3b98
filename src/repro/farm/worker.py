"""The farm worker: run one job in a child process, checkpointed.

A worker is intentionally dumb: it receives a job's canonical config
plus a per-job work directory and drives a
:class:`~repro.checkpoint.resume.ResumableRun` to completion, writing

* ``checkpoints/`` — the job's bounded :class:`CheckpointStore`
  (its durable state; any later worker can resume from it);
* ``heartbeat-a<attempt>.jsonl`` — a :class:`RunHeartbeat` stream the
  farm aggregates into the live campaign view;
* ``result.json`` — the *deterministic* result document (canonical
  JSON of the config plus the workload's final report), written only
  on completion — this is the exact document the
  :class:`~repro.farm.cache.ResultCache` stores, so a cache hit is
  byte-identical to a fresh simulation;
* ``outcome-a<attempt>.json`` — per-attempt metadata (recovery report,
  fresh/replayed event split) that is *not* part of the deterministic
  result: two attempts that preempt differently record different
  outcomes but identical results.

Exit codes follow the repo's convention: 0 = done, 75 = preempted
(:data:`~repro.checkpoint.resume.EXIT_KILLED`, the EX_TEMPFAIL code
``repro run --kill-after-events`` exits with — the job is resumable,
not failed), anything else = failed.  A run that ends ``exhausted``
(the model raised a ``ResourceError``) is done: its result document
records the error, and the cache keeps it like any other result.

The migration story is just resume: the worker opens its run through
:meth:`ResumableRun.open`, so if ``checkpoints/`` already holds
bundles, it rebuilds from the newest one, replays and verifies it, and
continues — regardless of which process captured it.  State moves
between workers as bundles on disk, never as live objects.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from pathlib import Path

from repro.checkpoint.policy import CheckpointPolicy, CheckpointStore
from repro.checkpoint.resume import EXIT_KILLED, ResumableRun
from repro.checkpoint.snapshot import canonical_json
from repro.obs.perf import RunHeartbeat

#: Exit code of a failed (non-resumable) job attempt.
EXIT_FAILED = 1

#: Default checkpoint cadence (kernel events) for farm jobs.
DEFAULT_CHECKPOINT_EVERY = 2_000
#: Default heartbeat cadence (kernel events) for farm jobs.
DEFAULT_HEARTBEAT_EVERY = 2_000


def result_document(config: dict, report: dict) -> dict:
    """The deterministic result document for a completed job."""
    return {"config": config, "report": report}


def execute_job(
    config: dict,
    work_dir,
    *,
    attempt: int = 1,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    heartbeat_every: int | None = DEFAULT_HEARTBEAT_EVERY,
    preempt_after_events: int | None = None,
) -> int:
    """Run one job to completion (or preemption); returns the exit code.

    ``config`` is the job's canonical ``{"workload", "params"}``;
    ``preempt_after_events`` simulates a mid-run kill after that many
    fresh events (the deterministic stand-in for an external SIGKILL,
    used by the preemption/migration tests and the CI smoke job).
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    store = CheckpointStore(work_dir / "checkpoints")
    policy = CheckpointPolicy(every_events=checkpoint_every)
    try:
        run = ResumableRun.open(config["workload"], config.get("params", {}),
                                policy=policy, store=store)
        heartbeat = None
        if heartbeat_every is not None:
            heartbeat = RunHeartbeat(
                heartbeat_every,
                out=work_dir / f"heartbeat-a{attempt}.jsonl",
            )
        recovery = run.run(kill_after_events=preempt_after_events,
                           heartbeat=heartbeat)
    except Exception:
        (work_dir / f"error-a{attempt}.txt").write_text(
            traceback.format_exc(), encoding="utf-8"
        )
        return EXIT_FAILED
    outcome = {
        "attempt": attempt,
        "outcome": recovery.to_dict()["outcome"],
        "events_fresh": run.events_fresh,
        "events_replayed": run.events_replayed,
        "checkpoints": run.captures,
        "recovery": recovery.to_dict(),
    }
    (work_dir / f"outcome-a{attempt}.json").write_text(
        json.dumps(outcome, sort_keys=True), encoding="utf-8"
    )
    if run.killed:
        return EXIT_KILLED
    document = result_document(config, run.final_report())
    result_path = work_dir / "result.json"
    tmp = result_path.with_suffix(".json.tmp")
    tmp.write_text(canonical_json(document), encoding="utf-8")
    os.replace(tmp, result_path)
    return 0


def worker_main(config: dict, work_dir: str, options: dict) -> None:
    """``multiprocessing.Process`` target: run one job, exit with its code."""
    sys.exit(execute_job(config, work_dir, **options))


def load_result(work_dir) -> dict:
    """Read a completed job's deterministic result document."""
    return json.loads(
        (Path(work_dir) / "result.json").read_text(encoding="utf-8")
    )


def load_outcomes(work_dir) -> list[dict]:
    """Every attempt's outcome metadata, in attempt order."""
    outcomes = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(work_dir).glob("outcome-a*.json"))
    ]
    return sorted(outcomes, key=lambda o: o["attempt"])


def latest_heartbeat(work_dir) -> dict | None:
    """The most recent heartbeat line of a job's newest attempt stream."""
    paths = sorted(Path(work_dir).glob("heartbeat-a*.jsonl"))
    for path in reversed(paths):
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        for line in reversed(lines):
            line = line.strip()
            if line:
                try:
                    return json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail of a live stream
    return None
