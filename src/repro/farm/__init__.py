"""``repro.farm`` — a checkpoint-backed simulation campaign farm.

The farm turns the simulator into a batch service: hundreds of queued
run specs (fault campaigns, DVFS sweeps, topology ablations) fan out
across a pool of worker processes, each job checkpointed as it runs and
content-addressed when it finishes.

* :class:`JobSpec` — one job; its identity is the SHA-256 of its
  canonical config.  Sweeps of jobs are declared by
  :class:`repro.dse.SweepSpec`.
* :class:`JobQueue` — durable per-job JSON records with states
  pending → running → done/failed/preempted; survives farm restarts.
* :class:`WorkerPool` — the multiprocessing coordinator: claims jobs,
  serves unchanged configs straight from the cache, spawns workers,
  honours the exit-75 preemption convention, and migrates preempted
  jobs to a different worker, which resumes byte-identically from the
  job's :class:`~repro.checkpoint.policy.CheckpointStore`.
* :class:`ResultCache` — content-addressed result documents: a cache
  hit is byte-identical to re-running the simulation.
* :class:`FarmReport` / :func:`farm_progress` — the end-of-campaign
  scheduling record and the live heartbeat-fed progress view.

``repro sweep`` drives all of it; see ``docs/sweep.md`` for the job
lifecycle, cache keying, and the preemption/migration walk-through.
"""

from repro.farm.cache import ResultCache
from repro.farm.pool import (
    FarmReport,
    WorkerPool,
    farm_progress,
    farm_report,
    render_progress,
)
from repro.farm.queue import JobQueue, JobRecord, STATES
from repro.farm.spec import FarmError, JobSpec
from repro.farm.worker import execute_job

__all__ = [
    "FarmError",
    "FarmReport",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "ResultCache",
    "STATES",
    "WorkerPool",
    "execute_job",
    "farm_progress",
    "farm_report",
    "render_progress",
]
