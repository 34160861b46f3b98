"""End-to-end tests for ``python -m repro sweep``: submission, the
worker pool, the cache, preemption and the refusal of bad input."""

import json

import pytest

from repro.__main__ import main
from repro.dse import SweepSpec


MATRIX = {
    "workload": "faults_stream",
    "base": {"words": 4, "drop_rate": 0.0},
    "sweep": {"seed": [0, 1], "slices_x": [1, 2]},
}


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(MATRIX))
    return path


def read(directory, name):
    return json.loads((directory / name).read_text())


class TestFarmCli:
    def test_submit_then_run_then_report(self, tmp_path, matrix_file, capsys):
        sweep = tmp_path / "sweep"
        assert main(["sweep", str(matrix_file), "--dir", str(sweep),
                     "--checkpoint-every", "200"]) == 0
        out = capsys.readouterr().out
        assert "farm: 4 jobs  done=4  0 cache hit(s)" in out
        assert "s wall" in out
        farm = read(sweep, "farm.json")
        assert farm["counts"]["done"] == 4
        assert farm["cache"]["hits"] == 0
        report = (sweep / "report.json").read_bytes()

        # Re-submitting the same spec dedupes on content: the queue
        # still holds 4 jobs, all done, and the report refolds the
        # same bytes.
        assert main(["sweep", str(matrix_file), "--dir", str(sweep)]) == 0
        capsys.readouterr()
        assert len(list((sweep / "queue" / "jobs").glob("*.json"))) == 4
        assert (sweep / "report.json").read_bytes() == report

        assert main(["sweep", "--dir", str(sweep), "--status"]) == 0
        assert "4/4 jobs finished" in capsys.readouterr().out

    def test_rerun_hits_the_cache(self, tmp_path, matrix_file, capsys):
        sweep_a = tmp_path / "sweep_a"
        assert main(["sweep", str(matrix_file), "--dir", str(sweep_a),
                     "--checkpoint-every", "200"]) == 0
        assert read(sweep_a, "farm.json")["cache"]["hits"] == 0

        # A second sweep directory sharing the cache: all hits, zero
        # workers, and the same report bytes.
        sweep_b = tmp_path / "sweep_b"
        assert main(["sweep", str(matrix_file), "--dir", str(sweep_b),
                     "--cache-dir", str(sweep_a / "cache")]) == 0
        capsys.readouterr()
        assert read(sweep_b, "farm.json")["cache"] == {
            "hits": 4, "misses": 0, "hit_rate": 1.0,
        }
        assert (sweep_b / "report.json").read_bytes() == \
            (sweep_a / "report.json").read_bytes()

    def test_preempt_flag_migrates_and_finishes(self, tmp_path, matrix_file,
                                                capsys):
        victim = SweepSpec.from_file(matrix_file).jobs()[0].job_id
        sweep = tmp_path / "sweep"
        assert main(["sweep", str(matrix_file), "--dir", str(sweep),
                     "--checkpoint-every", "200",
                     "--preempt", f"{victim}@300"]) == 0
        capsys.readouterr()
        farm = read(sweep, "farm.json")
        assert farm["counts"]["done"] == 4
        assert farm["preemptions"] == 1
        row = next(j for j in farm["jobs"] if j["job_id"] == victim)
        assert row["attempts"] == 2
        assert len(set(row["workers"])) == 2

    def test_run_on_empty_queue_exits_2(self, tmp_path, capsys):
        # No SPEC and no saved sweep.json: nothing to resume.
        assert main(["sweep", "--dir", str(tmp_path / "nothing")]) == 2
        assert "submit a sweep first" in capsys.readouterr().err

    def test_bad_preempt_spec_exits_2(self, tmp_path, matrix_file):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", str(matrix_file), "--dir", str(tmp_path / "s"),
                  "--preempt", "nonsense"])
        assert exit_info.value.code == 2

    def test_preempt_of_a_job_not_in_the_sweep_exits_2(
        self, tmp_path, matrix_file, capsys
    ):
        sweep = tmp_path / "sweep"
        assert main(["sweep", str(matrix_file), "--dir", str(sweep),
                     "--preempt", "deadbeef0000@100"]) == 2
        assert "deadbeef0000" in capsys.readouterr().err
        assert not sweep.exists()  # refused before anything was queued

    @pytest.mark.parametrize("spec,named", [
        ({"workload": "nosuch", "sweep": {"seed": [0, 1]}}, "nosuch"),
        (dict(MATRIX, base={"wrods": 4}), "wrods"),
        (dict(MATRIX, sweep={"seeed": [0, 1]}), "seeed"),
        (dict(MATRIX, sweep={"campaign": [{"seed": 1, "kils": 2}]}), "kils"),
        (dict(MATRIX, sweep=[1, 2]), "must be objects"),
        (dict(MATRIX, objectives=["gips"]), "'gips'"),
        (dict(MATRIX, objectives=[["gips"]]), "['gips']"),
    ], ids=["workload", "base-key", "axis-key", "bundle-key", "sweep-list",
            "objective-string", "objective-pair"])
    def test_bad_spec_is_refused_before_queueing(self, tmp_path, capsys,
                                                 spec, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        sweep = tmp_path / "sweep"
        assert main(["sweep", str(path), "--dir", str(sweep)]) == 2
        assert named in capsys.readouterr().err
        assert not sweep.exists()

    def test_failed_job_exits_1(self, tmp_path, capsys):
        # A declared key with a value the builder rejects: the job fails
        # (an error, not an exhausted run) and so does the sweep.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "workload": "policy_rt",
            "base": {"tasks": 4},
            "sweep": {"policy": ["kfault", "bogus"]},
        }))
        sweep = tmp_path / "sweep"
        assert main(["sweep", str(path), "--dir", str(sweep)]) == 1
        capsys.readouterr()
        farm = read(sweep, "farm.json")
        assert farm["counts"] == {"pending": 0, "running": 0, "done": 1,
                                  "failed": 1, "preempted": 0}
        summary = read(sweep, "report.json")["summary"]
        assert (summary["survived"], summary["failed"]) == (1, 1)
