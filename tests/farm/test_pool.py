"""Tests for the worker pool: fan-out, cache serving, preemption."""

from repro.dse import SweepSpec
from repro.farm import JobQueue, ResultCache, WorkerPool


def small_matrix():
    return SweepSpec(
        workload="faults_stream",
        base={"words": 4, "drop_rate": 0.0},
        sweep={"seed": [0, 1], "slices_x": [1, 2]},
    )


def make_farm(tmp_path, num_workers=2):
    queue = JobQueue(tmp_path / "farm" / "queue")
    queue.submit_all(small_matrix().jobs())
    cache = ResultCache(tmp_path / "farm" / "cache")
    pool = WorkerPool(queue, cache, tmp_path / "farm" / "work",
                      num_workers=num_workers,
                      checkpoint_every=200, heartbeat_every=200)
    return queue, cache, pool


class TestWorkerPool:
    def test_runs_a_matrix_across_workers(self, tmp_path):
        queue, cache, pool = make_farm(tmp_path)
        report = pool.run()
        payload = report.to_dict()
        assert payload["total_jobs"] == 4
        assert payload["counts"]["done"] == 4
        assert payload["cache"] == {
            "hits": 0, "misses": 4, "hit_rate": 0.0,
        }
        assert queue.done()
        # Every done job's result document is in the cache; the farm
        # report itself holds scheduling fields only.
        for job, record in zip(payload["jobs"], queue.jobs()):
            assert job["state"] == "done"
            assert "total_energy_j" not in job
            result = cache.get(record.digest)["report"]
            assert result["energy"]["total_energy_j"] > 0.0
            assert result["delivered_ok"] is True
        assert "farm: 4 jobs  done=4" in report.render()

    def test_second_pass_is_served_from_cache(self, tmp_path):
        _, cache, pool = make_farm(tmp_path)
        first = pool.run().to_dict()
        assert first["cache"]["hits"] == 0

        # A fresh queue (new campaign) sharing the same cache: every
        # unchanged job completes as a hit, spawning no workers.
        queue_b = JobQueue(tmp_path / "farm_b" / "queue")
        queue_b.submit_all(small_matrix().jobs())
        pool_b = WorkerPool(queue_b, cache, tmp_path / "farm_b" / "work",
                            num_workers=2)
        second = pool_b.run().to_dict()
        assert second["counts"]["done"] == 4
        assert second["cache"]["hits"] == 4
        assert second["cache"]["hit_rate"] == 1.0
        assert all(e == "cache_hit" for _, e in pool_b.events)

    def test_preempted_job_migrates_to_another_worker(self, tmp_path):
        queue, cache, pool = make_farm(tmp_path)
        victim = queue.jobs()[0].job_id
        report = pool.run(preempt={victim: 300}).to_dict()
        assert report["counts"]["done"] == 4
        assert report["preemptions"] == 1

        record = queue.get(victim)
        assert record.attempts == 2
        # Migration: the retry ran on a different worker slot.
        assert len(set(record.workers)) == 2

    def test_single_worker_resumes_in_place(self, tmp_path):
        queue, cache, pool = make_farm(tmp_path, num_workers=1)
        victim = queue.jobs()[0].job_id
        report = pool.run(preempt={victim: 300}).to_dict()
        assert report["counts"]["done"] == 4
        record = queue.get(victim)
        assert record.attempts == 2
        assert record.workers == [0, 0]  # nowhere to migrate to

    def test_failed_job_records_error(self, tmp_path):
        queue = JobQueue(tmp_path / "farm" / "queue")
        queue.submit_all(small_matrix().jobs())
        from repro.farm import JobSpec
        bad = queue.submit(JobSpec("no_such_workload", {}))
        cache = ResultCache(tmp_path / "farm" / "cache")
        pool = WorkerPool(queue, cache, tmp_path / "farm" / "work",
                          num_workers=2)
        report = pool.run().to_dict()
        assert report["counts"]["done"] == 4
        assert report["counts"]["failed"] == 1
        assert "exited with code" in queue.get(bad.job_id).error
        error_files = list(pool.work_dir(bad.job_id).glob("error-a*.txt"))
        assert error_files and "no_such_workload" in error_files[0].read_text()
