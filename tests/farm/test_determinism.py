"""The farm's two determinism guarantees, pinned at the byte level.

1. **Preemption is invisible in the result**: a job killed mid-run
   (exit 75) and resumed — by a different worker process — produces a
   ``result.json`` byte-identical to an uninterrupted run's.
2. **A cache hit is a simulation**: the document a
   :class:`ResultCache` hit returns serialises to exactly the bytes a
   fresh run of that config writes.
"""

from pathlib import Path

from repro.checkpoint import EXIT_KILLED
from repro.checkpoint.snapshot import canonical_json
from repro.farm import (
    JobQueue,
    JobSpec,
    ResultCache,
    WorkerPool,
    execute_job,
)
from repro.farm.worker import load_outcomes


SPEC = JobSpec("faults_stream", {"words": 6, "seed": 3, "drop_rate": 0.05})


def result_bytes(work_dir) -> bytes:
    return (Path(work_dir) / "result.json").read_bytes()


class TestPreemptionByteIdentity:
    def test_preempt_and_resume_matches_uninterrupted(self, tmp_path):
        # Reference: one uninterrupted run.
        assert execute_job(SPEC.config, tmp_path / "ref",
                           checkpoint_every=200) == 0

        # Preempted: killed after 300 fresh events, then resumed from
        # the checkpoint store by a second execute_job call — the exact
        # migration path (state moves as bundles on disk, the resuming
        # call shares nothing in memory with the first).
        code = execute_job(SPEC.config, tmp_path / "mig",
                           checkpoint_every=200, preempt_after_events=300)
        assert code == EXIT_KILLED
        assert not (tmp_path / "mig" / "result.json").exists()
        assert execute_job(SPEC.config, tmp_path / "mig", attempt=2,
                           checkpoint_every=200) == 0

        assert result_bytes(tmp_path / "mig") == result_bytes(tmp_path / "ref")
        outcomes = load_outcomes(tmp_path / "mig")
        assert [o["outcome"] for o in outcomes] == ["killed", "completed"]
        assert outcomes[1]["events_replayed"] > 0

    def test_pool_migration_matches_uninterrupted(self, tmp_path):
        # The same property through the whole farm stack: preempted in
        # one worker process, resumed in another.
        assert execute_job(SPEC.config, tmp_path / "ref",
                           checkpoint_every=200) == 0

        queue = JobQueue(tmp_path / "farm" / "queue")
        record = queue.submit(SPEC)
        cache = ResultCache(tmp_path / "farm" / "cache")
        pool = WorkerPool(queue, cache, tmp_path / "farm" / "work",
                          num_workers=2, checkpoint_every=200)
        pool.run(preempt={record.job_id: 300})

        assert len(set(queue.get(record.job_id).workers)) == 2  # migrated
        assert result_bytes(pool.work_dir(record.job_id)) == \
            result_bytes(tmp_path / "ref")


class TestCacheHitByteIdentity:
    def test_hit_equals_fresh_simulation(self, tmp_path):
        assert execute_job(SPEC.config, tmp_path / "fresh",
                           checkpoint_every=200) == 0
        fresh = result_bytes(tmp_path / "fresh")

        queue = JobQueue(tmp_path / "farm" / "queue")
        queue.submit(SPEC)
        cache = ResultCache(tmp_path / "farm" / "cache")
        WorkerPool(queue, cache, tmp_path / "farm" / "work",
                   num_workers=1, checkpoint_every=200).run()

        hit = cache.get(SPEC.digest)
        assert hit is not None
        assert canonical_json(hit).encode() == fresh
