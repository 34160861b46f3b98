"""Tests for JobSpec and the sweep spec's matrix expansion: content
addressing, axis order, bundles and dedupe."""

import json

import pytest

from repro.dse import SweepSpec
from repro.farm import FarmError, JobSpec


class TestJobSpec:
    def test_digest_is_stable_across_param_order(self):
        a = JobSpec("faults_stream", {"words": 8, "seed": 1})
        b = JobSpec("faults_stream", {"seed": 1, "words": 8})
        assert a.digest == b.digest
        assert a.job_id == b.job_id == a.digest[:12]

    def test_digest_separates_configs(self):
        a = JobSpec("faults_stream", {"seed": 1})
        b = JobSpec("faults_stream", {"seed": 2})
        c = JobSpec("demo", {"seed": 1})
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_roundtrip(self):
        spec = JobSpec("demo", {"slices_x": 2, "freq_mhz": 250})
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest == spec.digest

    def test_rejects_empty_workload(self):
        with pytest.raises(FarmError, match="workload name"):
            JobSpec("")

    def test_rejects_unserialisable_params(self):
        with pytest.raises(FarmError, match="JSON-able"):
            JobSpec("demo", {"bad": object()})


class TestMatrixSpec:
    """The sweep spec's Cartesian expansion."""

    def matrix(self):
        return SweepSpec(
            workload="faults_stream",
            base={"words": 8},
            sweep={"slices_x": [1, 2], "seed": [0, 1, 2]},
        )

    def test_num_jobs_is_the_product(self):
        assert self.matrix().num_points == 6

    def test_expansion_is_deterministic(self):
        jobs_a = self.matrix().jobs()
        jobs_b = self.matrix().jobs()
        assert [j.digest for j in jobs_a] == [j.digest for j in jobs_b]
        assert len(jobs_a) == 6
        # Sorted axis order: slices_x varies fastest (sorts after seed).
        assert [(j.params["seed"], j.params["slices_x"])
                for j in jobs_a[:3]] == [(0, 1), (0, 2), (1, 1)]
        assert all(j.params["words"] == 8 for j in jobs_a)

    def test_duplicate_configs_collapse(self):
        matrix = SweepSpec(
            workload="demo",
            base={"seed": 7},
            sweep={"seed": [7, 7, 8]},
        )
        assert [j.params["seed"] for j in matrix.jobs()] == [7, 8]

    def test_from_file_and_validation(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(self.matrix().to_dict()))
        loaded = SweepSpec.from_file(path)
        assert loaded == self.matrix()

        path.write_text("{not json")
        with pytest.raises(FarmError, match="unparseable"):
            SweepSpec.from_file(path)

    def test_rejects_empty_axis(self):
        with pytest.raises(FarmError, match="non-empty value list"):
            SweepSpec(workload="demo", sweep={"seed": []})

    def test_rejects_missing_workload(self):
        with pytest.raises(FarmError, match="workload"):
            SweepSpec.from_dict({"sweep": {"seed": [1]}})


class TestBundledAxes:
    def test_dict_values_merge_into_params(self):
        matrix = SweepSpec(
            workload="policy_rt",
            base={"tasks": 8},
            sweep={
                "campaign": [
                    {"seed": 1, "kills": 1},
                    {"seed": 2, "kills": 2},
                ],
                "policy": ["edf", "kfault"],
            },
        )
        jobs = matrix.jobs()
        assert len(jobs) == matrix.num_points == 4
        for spec in jobs:
            assert "campaign" not in spec.params
            assert spec.params["tasks"] == 8
            assert spec.params["seed"] == spec.params["kills"]

    def test_bundles_co_vary_instead_of_multiplying(self):
        matrix = SweepSpec(
            workload="policy_rt",
            sweep={"campaign": [{"seed": 1, "kills": 1},
                                {"seed": 2, "kills": 2}]},
        )
        seen = [(s.params["seed"], s.params["kills"])
                for s in matrix.jobs()]
        assert seen == [(1, 1), (2, 2)]

    def test_bundled_expansion_is_deterministic(self):
        build = lambda: SweepSpec(
            workload="policy_rt",
            sweep={
                "campaign": [{"seed": 2}, {"seed": 1}],
                "k": [0, 1],
            },
        ).jobs()
        assert [s.digest for s in build()] == [s.digest for s in build()]


class TestMatrixEdgeCases:
    """The expansion corners the sweep engine leans on."""

    def test_empty_sweep_yields_the_single_base_job(self):
        matrix = SweepSpec(workload="demo", base={"seed": 3}, sweep={})
        jobs = matrix.jobs()
        assert matrix.num_points == 1
        assert len(jobs) == 1
        assert jobs[0].params == {"seed": 3}
        assert jobs[0].digest == JobSpec("demo", {"seed": 3}).digest

    def test_bundles_mixed_with_scalar_axes(self):
        matrix = SweepSpec(
            workload="faults_stream",
            base={"words": 4, "drop_rate": 0.5},
            sweep={
                "campaign": [
                    {"seed": 1, "drop_rate": 0.0},
                    {"seed": 2, "drop_rate": 0.1},
                ],
                "slices_x": [1, 2],
            },
        )
        jobs = matrix.jobs()
        assert len(jobs) == 4
        for spec in jobs:
            # The bundle overrides base keys; the scalar axis binds its
            # own name; the axis name of the bundle never leaks.
            assert "campaign" not in spec.params
            assert spec.params["words"] == 4
            assert spec.params["drop_rate"] in (0.0, 0.1)
        # Sorted axis order: campaign before slices_x, slices_x fastest.
        assert [(s.params["seed"], s.params["slices_x"]) for s in jobs] == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_dedupe_keeps_first_occurrence_order(self):
        matrix = SweepSpec(
            workload="demo",
            sweep={
                # Bundles collide with the scalar axis's combinations:
                # {"seed": 1} from the bundle equals seed=1 from the
                # scalar axis once merged.
                "campaign": [{"seed": 1}, {"seed": 2}, {"seed": 1}],
                "slices_y": [1],
            },
        )
        seeds = [s.params["seed"] for s in matrix.jobs()]
        assert seeds == [1, 2]
        assert matrix.num_points == 2  # the 3-job product, deduped

    def test_dedupe_ordering_is_stable_across_runs(self):
        def build():
            return SweepSpec(
                workload="policy_rt",
                base={"tasks": 8},
                sweep={
                    "k": [2, 1, 2],
                    "campaign": [{"seed": 1}, {"seed": 1}, {"seed": 2}],
                },
            ).jobs()

        first = build()
        for _ in range(3):
            again = build()
            assert [s.digest for s in again] == [s.digest for s in first]
            assert [s.params for s in again] == [s.params for s in first]
        # 3x3 product with duplicate values collapses to 2x2 configs.
        assert len(first) == 4
