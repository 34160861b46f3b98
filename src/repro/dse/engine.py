"""The sweep engine: expand a spec, execute it, fold and export it.

Two execution paths share one result shape:

* **farm mode** (:func:`run_sweep`, what ``repro sweep`` runs): the
  sweep expands into the campaign farm — durable
  :class:`~repro.farm.queue.JobQueue`, worker processes, exit-75
  preemption/resume, content-addressed
  :class:`~repro.farm.cache.ResultCache`.  A killed sweep resumes by
  running it again; a repeated sweep completes from cache.
* **inline mode** (:func:`run_inline`: tests, benches, examples): each
  design point runs in-process via
  :class:`~repro.checkpoint.resume.ResumableRun`, producing the
  *identical* canonical result document the farm worker writes — so
  the folded report is byte-identical between modes, which the test
  suite asserts.

The sweep directory is durable state (:class:`SweepDirs`):
``sweep.json`` (the spec), ``queue/`` (job records), ``cache/``
(result documents), ``work/`` (per-job checkpoints/heartbeats), plus
the fixed-name exports :func:`run_sweep` writes (:data:`EXPORTS`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.farm.cache import ResultCache
from repro.farm.pool import FarmReport, WorkerPool
from repro.farm.queue import JobQueue
from repro.farm.spec import FarmError
from repro.farm.worker import DEFAULT_CHECKPOINT_EVERY, result_document
from repro.dse.exports import (
    fleet_overlay,
    overlay_json,
    sweep_timeline,
    timeline_json,
)
from repro.dse.pareto import front_csv, front_json, pareto_front
from repro.dse.report import fold_results, report_json
from repro.dse.spec import SweepSpec

#: File the sweep's spec persists under inside the sweep directory.
SPEC_FILENAME = "sweep.json"

#: The exports :func:`run_sweep` writes into the sweep directory;
#: ``heatmap.json`` only when some job carries netscope.
EXPORTS = ("report.json", "front.json", "front.csv", "timeline.json",
           "farm.json", "heatmap.json")


class SweepDirs:
    """The durable layout of one sweep directory.

    ``cache_dir`` may point outside the sweep directory: a shared
    result cache lets a re-run of the same spec in a *fresh* directory
    complete every point as a cache hit instead of re-simulating — the
    property the CI smoke job asserts at >=90%.
    """

    def __init__(self, directory, cache_dir=None):
        self.root = Path(directory)
        self.spec_path = self.root / SPEC_FILENAME
        self.queue_dir = self.root / "queue"
        self.cache_dir = Path(
            cache_dir if cache_dir is not None else self.root / "cache"
        )
        self.work_dir = self.root / "work"


def load_spec(directory) -> SweepSpec:
    """Load the spec a sweep directory was submitted with."""
    dirs = SweepDirs(directory)
    if not dirs.spec_path.exists():
        raise FarmError(
            f"no {SPEC_FILENAME} in {dirs.root} — submit a sweep first"
        )
    return SweepSpec.from_file(dirs.spec_path)


def run_sweep(
    spec: SweepSpec,
    directory,
    num_workers: int = 2,
    preempt: dict | None = None,
    cache_dir=None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> tuple[dict, FarmReport]:
    """Submit, drive, fold and export the sweep; returns (report, farm).

    ``preempt`` maps job ids of this sweep to fresh-event counts after
    which that job's next attempt exits 75 (the deterministic mid-run
    kill); the resumed attempt migrates to another worker and the
    folded report stays byte-identical — the property the CI smoke job
    checks.  An id that names no job of the sweep is refused before
    anything is queued.  Submission is idempotent: the spec is saved
    as ``sweep.json`` and the queue dedupes on content digest, so
    re-running a spec (or an overlapping one) only adds new points.
    The :data:`EXPORTS` are written into ``directory``.
    """
    jobs = spec.jobs()
    unknown = sorted(set(preempt or ()) - {job.job_id for job in jobs})
    if unknown:
        raise FarmError(
            f"preempt names no job of this sweep: {', '.join(unknown)}"
        )
    dirs = SweepDirs(directory, cache_dir)
    dirs.root.mkdir(parents=True, exist_ok=True)
    temp = dirs.spec_path.with_suffix(".tmp")
    temp.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    temp.replace(dirs.spec_path)
    queue = JobQueue(dirs.queue_dir)
    queue.submit_all(jobs)
    cache = ResultCache(dirs.cache_dir)
    pool = WorkerPool(
        queue, cache, dirs.work_dir,
        num_workers=num_workers, checkpoint_every=checkpoint_every,
    )
    farm = pool.run(preempt=preempt)
    documents = {job.digest: cache.get(job.digest) for job in jobs}
    report = fold_results(spec, documents)
    _write_exports(dirs.root, report, farm, [
        document for document in documents.values() if document is not None
    ])
    return report, farm


def _write_exports(root: Path, report: dict, farm: FarmReport,
                   documents: list[dict]) -> None:
    front = pareto_front(report)
    texts = {
        "report.json": report_json(report),
        "front.json": front_json(front),
        "front.csv": front_csv(front),
        "timeline.json": timeline_json(sweep_timeline(report, front)),
        "farm.json": farm.to_json() + "\n",
    }
    overlay = fleet_overlay(documents, front)
    if overlay is not None:
        texts["heatmap.json"] = overlay_json(overlay)
    else:
        (root / "heatmap.json").unlink(missing_ok=True)
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")


def run_inline(spec: SweepSpec, cache: ResultCache | None = None) -> dict:
    """Run every design point in-process and fold the report.

    No queue, no child processes — the fast path for benches and unit
    tests.  With a ``cache``, results are served from and stored into
    it using the same content addresses as the farm, so inline and
    farm runs interoperate on one sweep directory.
    """
    from repro.checkpoint.resume import ResumableRun

    documents: dict = {}
    for job in spec.jobs():
        document = cache.get(job.digest) if cache is not None else None
        if document is None:
            run = ResumableRun(job.workload, dict(job.params))
            run.run()
            document = result_document(job.config, run.final_report())
            if cache is not None:
                cache.put(job.digest, document)
        documents[job.digest] = document
    return fold_results(spec, documents)
