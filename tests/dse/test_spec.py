"""SweepSpec: objectives, matrix expansion, content identity."""

import json

import pytest

from repro.dse import Objective, SweepSpec, default_objectives
from repro.farm import FarmError, JobSpec


class TestObjective:
    def test_orientation(self):
        assert Objective("gips", "max").better(2.0, 1.0)
        assert not Objective("gips", "max").better(1.0, 2.0)
        assert Objective("watts", "min").better(1.0, 2.0)

    def test_validation(self):
        with pytest.raises(FarmError, match="goal"):
            Objective("gips", "up")
        with pytest.raises(FarmError, match="metric key"):
            Objective("")

    def test_from_dict_accepts_pairs_and_dicts(self):
        assert Objective.from_dict(("gips", "max")) == Objective("gips", "max")
        assert Objective.from_dict({"key": "w"}) == Objective("w", "min")


class TestSweepSpec:
    def spec(self):
        return SweepSpec(
            workload="demo",
            sweep={"topology": ["lattice", "mesh"], "seed": [1, 2]},
        )

    def test_defaults_to_the_paper_trio(self):
        spec = self.spec()
        assert spec.objectives == default_objectives()
        assert [obj.key for obj in spec.objectives] == [
            "gips", "mean_power_w", "energy_per_instr_pj",
        ]

    def test_expands_through_the_farm_matrix(self):
        spec = self.spec()
        jobs = spec.jobs()
        assert spec.num_points == 4
        assert [j.workload for j in jobs] == ["demo"] * 4
        # Each point is the farm job of its params: same digest, so the
        # cache key of a point is that of a hand-built job.
        assert [j.digest for j in jobs] == [
            JobSpec("demo", {"seed": seed, "topology": topology}).digest
            for seed in (1, 2) for topology in ("lattice", "mesh")
        ]

    def test_digest_covers_objectives(self):
        spec = self.spec()
        reweighted = SweepSpec(
            workload="demo",
            sweep={"topology": ["lattice", "mesh"], "seed": [1, 2]},
            objectives=(("gips", "max"), ("total_energy_j", "min")),
        )
        assert spec.digest != reweighted.digest
        # But job identity is objective-independent: same simulations.
        assert [j.digest for j in spec.jobs()] == [
            j.digest for j in reweighted.jobs()
        ]

    def test_roundtrip_and_file_io(self, tmp_path):
        spec = self.spec()
        again = SweepSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest == spec.digest
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert SweepSpec.from_file(path).digest == spec.digest
        path.write_text("{nope")
        with pytest.raises(FarmError, match="unparseable"):
            SweepSpec.from_file(path)

    def test_rejects_duplicate_objectives(self):
        with pytest.raises(FarmError, match="duplicate objective"):
            SweepSpec(
                workload="demo",
                objectives=(("gips", "max"), ("gips", "min")),
            )

    def test_rejects_bad_axes_via_matrix_validation(self):
        with pytest.raises(FarmError, match="non-empty value list"):
            SweepSpec(workload="demo", sweep={"seed": []})
        with pytest.raises(FarmError, match="takes no param"):
            SweepSpec(workload="demo", sweep={"messages": [1, 2]})
