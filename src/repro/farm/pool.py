"""The worker pool: fan jobs out across processes; aggregate the farm.

One coordinator (this process) owns the :class:`JobQueue` and the
:class:`ResultCache`; N worker *slots* each run at most one child
process at a time (``multiprocessing``, fork where available).  The
loop is claim → maybe-serve-from-cache → spawn → reap:

* a claimable job whose config digest is already cached completes
  immediately as a **cache hit** — no process, no simulation;
* exit 0 stores the worker's deterministic ``result.json`` in the
  cache and marks the job done;
* exit 75 (:data:`~repro.checkpoint.resume.EXIT_KILLED`) marks it
  preempted — claimable again, and the pool deliberately prefers a
  *different* slot for the retry, so preemption exercises migration:
  the next worker resumes from the job's checkpoint store and finishes
  byte-identically;
* any other exit marks it failed (the attempt's traceback is in the
  job's work directory).

:func:`farm_progress` folds every job's newest heartbeat line into a
live campaign view; :func:`farm_report` builds the final
:class:`FarmReport`, the scheduling record of the queue (states,
attempts, worker slots, cache hits).  It reflects this farm's actual
history, so it differs between a cold and a warm pass; what the jobs
computed is folded from the result cache (:mod:`repro.dse.report`).
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path

from repro.checkpoint.resume import EXIT_KILLED
from repro.checkpoint.snapshot import canonical_json
from repro.farm.cache import ResultCache
from repro.farm.queue import CLAIMABLE, JobQueue, JobRecord
from repro.farm.spec import FarmError
from repro.farm import worker as worker_mod
from repro.farm.worker import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_HEARTBEAT_EVERY,
    worker_main,
)


def _mp_context():
    """Fork when the platform has it (fast), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class FarmReport:
    """The scheduling record of a campaign: states, attempts, cache hits."""

    def __init__(self, payload: dict):
        self.payload = payload

    def to_dict(self) -> dict:
        return self.payload

    def to_json(self) -> str:
        """Canonical JSON of the report."""
        return canonical_json(self.payload)

    def render(self) -> str:
        """One line: job states, cache hits, attempts, preemptions."""
        p = self.payload
        states = "  ".join(
            f"{s}={n}" for s, n in sorted(p["counts"].items()) if n
        )
        return (
            f"farm: {p['total_jobs']} jobs  {states}  "
            f"{p['cache']['hits']} cache hit(s)  {p['attempts']} "
            f"attempt(s)  {p['preemptions']} preemption(s)  "
            f"{p['wall_s']:.2f} s wall"
        )

    def __repr__(self) -> str:
        p = self.payload
        return (
            f"<FarmReport jobs={p['total_jobs']} "
            f"hits={p['cache']['hits']}>"
        )


class WorkerPool:
    """Drive a queue's jobs to terminal states across worker processes."""

    def __init__(
        self,
        queue: JobQueue,
        cache: ResultCache,
        work_root,
        num_workers: int = 2,
        *,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        heartbeat_every: int | None = DEFAULT_HEARTBEAT_EVERY,
        poll_s: float = 0.01,
    ):
        if num_workers < 1:
            raise FarmError("need at least one worker")
        self.queue = queue
        self.cache = cache
        self.num_workers = num_workers
        self.work_root = Path(work_root)
        self.checkpoint_every = checkpoint_every
        self.heartbeat_every = heartbeat_every
        self.poll_s = poll_s
        self._context = _mp_context()
        #: Wall seconds of the last :meth:`run` (edge-only, never part
        #: of any deterministic document).
        self.wall_s = 0.0
        #: Events log: (job_id, event) tuples in coordinator order.
        self.events: list[tuple[str, str]] = []

    def work_dir(self, job_id: str) -> Path:
        """A job's work directory (checkpoints, heartbeats, result)."""
        return self.work_root / job_id

    # -- the coordinator loop -----------------------------------------------

    def _claimable(self) -> list[JobRecord]:
        claimable = [r for r in self.queue.jobs() if r.state in CLAIMABLE]
        claimable.sort(key=lambda r: (r.state != "preempted", r.index))
        return claimable

    def _spawn(self, record: JobRecord, slot: int,
               preempt_after: int | None):
        options = {
            "attempt": record.attempts,
            "checkpoint_every": self.checkpoint_every,
            "heartbeat_every": self.heartbeat_every,
            "preempt_after_events": preempt_after,
        }
        process = self._context.Process(
            target=worker_main,
            args=(record.spec.config, str(self.work_dir(record.job_id)),
                  options),
            name=f"farm-worker-{slot}-{record.job_id}",
        )
        process.start()
        return process

    def _reap(self, record: JobRecord, exitcode: int) -> None:
        job_id = record.job_id
        if exitcode == 0:
            document = worker_mod.load_result(self.work_dir(job_id))
            self.cache.put(record.digest, document)
            self.queue.complete(job_id)
            self.events.append((job_id, "done"))
        elif exitcode == EXIT_KILLED:
            self.queue.preempt(job_id)
            self.events.append((job_id, "preempted"))
        else:
            self.queue.fail(job_id, f"worker exited with code {exitcode}")
            self.events.append((job_id, f"failed({exitcode})"))

    def _fill(self, slots: list, preempt: dict[str, int]) -> None:
        """Assign claimable jobs to idle slots.

        A cached config completes on the spot without occupying a slot.
        A preempted job is only assigned to a slot it has *not* run on:
        with more than one worker it waits for a different slot to free
        instead of resuming where it was killed — preemption always
        migrates, which is what makes the byte-identical-resume
        guarantee worth testing.  (A single-worker pool resumes in
        place; there is nowhere to migrate to.)
        """
        while True:
            free = [i for i, slot in enumerate(slots) if slot is None]
            if not free:
                return
            assigned = False
            for record in self._claimable():
                if self.cache.get(record.digest) is not None:
                    self.queue.complete(record.job_id, cache_hit=True)
                    self.events.append((record.job_id, "cache_hit"))
                    assigned = True
                    break
                last = record.workers[-1] if record.workers else None
                preferred = [slot for slot in free if slot != last]
                if not preferred:
                    if self.num_workers > 1:
                        continue  # wait for a different slot — migrate
                    preferred = free
                slot = preferred[0]
                record = self.queue.claim(slot, job_id=record.job_id)
                slots[slot] = (
                    record,
                    self._spawn(record, slot,
                                preempt.pop(record.job_id, None)),
                )
                assigned = True
                break
            if not assigned:
                return

    def run(self, preempt: dict[str, int] | None = None) -> FarmReport:
        """Drive every queued job to a terminal state; return the report.

        ``preempt`` maps job ids to a fresh-event count after which that
        job's *next* attempt exits with code 75 — the deterministic
        stand-in for killing a worker mid-run.  Each entry fires once;
        the resumed attempt runs unhindered (on a different slot when
        more than one worker exists).
        """
        preempt = dict(preempt or {})
        self.queue.recover()
        self.work_root.mkdir(parents=True, exist_ok=True)
        slots: list[tuple[JobRecord, object] | None] = (
            [None] * self.num_workers
        )
        started = time.perf_counter()
        try:
            while True:
                # Reap finished workers.
                for index, slot in enumerate(slots):
                    if slot is None:
                        continue
                    record, process = slot
                    if process.exitcode is None:
                        continue
                    process.join()
                    self._reap(record, process.exitcode)
                    slots[index] = None
                # Fill idle slots (cache hits complete without a slot).
                self._fill(slots, preempt)
                if all(slot is None for slot in slots):
                    if not self._claimable():
                        break
                    continue
                time.sleep(self.poll_s)
        finally:
            for slot in slots:
                if slot is not None:
                    slot[1].terminate()
                    slot[1].join()
            self.wall_s = time.perf_counter() - started
        return farm_report(self.queue, self.wall_s)

    def __repr__(self) -> str:
        return (
            f"<WorkerPool workers={self.num_workers} "
            f"queue={self.queue.directory}>"
        )


# ---------------------------------------------------------------------------
# Aggregation: live progress and the final report
# ---------------------------------------------------------------------------


def farm_report(queue: JobQueue, wall_s: float) -> FarmReport:
    """The queue's scheduling record as a :class:`FarmReport`, after a
    pool pass of ``wall_s`` wall seconds."""
    jobs = [
        {
            "job_id": record.job_id,
            "index": record.index,
            "state": record.state,
            "attempts": record.attempts,
            "workers": list(record.workers),
            "cache_hit": record.cache_hit,
            "error": record.error,
        }
        for record in queue.jobs()
    ]
    hits = sum(1 for job in jobs if job["cache_hit"])
    done = sum(1 for job in jobs if job["state"] == "done")
    attempts = sum(job["attempts"] for job in jobs)
    preemptions = sum(
        max(0, job["attempts"] - 1) for job in jobs
        if job["state"] == "done" and not job["cache_hit"]
    )
    return FarmReport({
        "total_jobs": len(jobs),
        "counts": queue.counts(),
        "cache": {
            "hits": hits,
            "misses": done - hits,
            "hit_rate": hits / done if done else 0.0,
        },
        "attempts": attempts,
        "preemptions": preemptions,
        "wall_s": wall_s,
        "jobs": jobs,
    })


def farm_progress(queue: JobQueue, work_root) -> dict:
    """The live campaign view: queue counts + newest heartbeat per job.

    Heartbeat streams are written by workers with atomic line flushes;
    a torn final line (a worker mid-write) is skipped, so progress can
    be polled while the farm runs.
    """
    work_root = Path(work_root)
    rows = []
    for record in queue.jobs():
        beat = worker_mod.latest_heartbeat(work_root / record.job_id)
        row = {
            "job_id": record.job_id,
            "state": record.state,
            "attempts": record.attempts,
            "cache_hit": record.cache_hit,
        }
        if beat is not None:
            row["events"] = beat.get("events")
            row["events_replayed"] = beat.get("events_replayed")
            row["sim_time_ps"] = beat.get("sim_time_ps")
            row["checkpoints"] = beat.get("checkpoints")
            row["final"] = beat.get("final")
        rows.append(row)
    return {"counts": queue.counts(), "jobs": rows}


def render_progress(progress: dict) -> str:
    """A printable live view for ``repro sweep --status``."""
    counts = progress["counts"]
    total = sum(counts.values())
    terminal = counts["done"] + counts["failed"]
    lines = [
        f"sweep status: {terminal}/{total} jobs finished  "
        + "  ".join(f"{s}={n}" for s, n in sorted(counts.items()) if n),
        f"  {'job':<14} {'state':<10} {'att':>3} {'events':>9} "
        f"{'replayed':>9} {'ckpts':>6}",
    ]
    for job in progress["jobs"]:
        events = job.get("events")
        lines.append(
            f"  {job['job_id']:<14} "
            f"{job['state'] + ('*' if job['cache_hit'] else ''):<10} "
            f"{job['attempts']:>3} "
            f"{events if events is not None else '-':>9} "
            f"{job.get('events_replayed', '-') or 0:>9} "
            f"{job.get('checkpoints', '-') or 0:>6}"
        )
    lines.append("  (* = served from the result cache)")
    return "\n".join(lines)
