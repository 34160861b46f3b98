"""Pareto extraction: brute-force verified fronts, provenance, knees."""

import pytest

from repro.dse.pareto import (
    SCHEMA,
    ascii_scatter,
    dominates,
    front_csv,
    front_json,
    pareto_acceptance_check,
    pareto_front,
)
from repro.dse.spec import Objective


def make_report(points, objectives=None, exhausted=()):
    """A minimal report-shaped document from (job_id, metrics); the
    ``exhausted`` job ids keep their metrics but did not survive."""
    cells = [
        {
            "job_id": job_id,
            "digest": job_id * 2,
            "params": {"p": index},
            "survived": metrics is not None and job_id not in exhausted,
            "metrics": metrics,
            "state_digest": None,
        }
        for index, (job_id, metrics) in enumerate(points)
    ]
    spec = {"sweep": {}, "objectives": objectives or [
        {"key": "speed", "goal": "max"}, {"key": "watts", "goal": "min"},
    ]}
    return {"cells": cells, "sweep_id": "t" * 12, "spec": spec}


class TestDominance:
    OBJECTIVES = [Objective("speed", "max"), Objective("watts", "min")]

    def test_strict_dominance(self):
        assert dominates([2.0, 1.0], [1.0, 2.0], self.OBJECTIVES)
        assert not dominates([1.0, 2.0], [2.0, 1.0], self.OBJECTIVES)

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([1.0, 1.0], [1.0, 1.0], self.OBJECTIVES)

    def test_trade_off_does_not_dominate(self):
        # Faster but hungrier: neither dominates.
        assert not dominates([2.0, 2.0], [1.0, 1.0], self.OBJECTIVES)
        assert not dominates([1.0, 1.0], [2.0, 2.0], self.OBJECTIVES)


class TestFront:
    def test_extraction_against_brute_force(self):
        """Every front must equal the brute-force non-dominated set."""
        # A deterministic point cloud with a real trade-off curve:
        # watts grows quadratically with speed, plus off-curve points
        # perturbed by a hash-derived offset (no RNG).
        points = []
        for i in range(40):
            speed = 0.5 + i * 0.1
            offset = ((i * 7919) % 7) * 0.05
            points.append((
                f"job{i:04d}",
                {"speed": speed, "watts": speed * speed * 0.3 + offset},
            ))
        report = make_report(points)
        front = pareto_front(report)
        objectives = [Objective("speed", "max"), Objective("watts", "min")]
        vectors = {
            job_id: [m["speed"], m["watts"]] for job_id, m in points
        }
        expected = {
            job_id for job_id in vectors
            if not any(
                dominates(vectors[other], vectors[job_id], objectives)
                for other in vectors if other != job_id
            )
        }
        assert {p["job_id"] for p in front["front"]} == expected
        pareto_acceptance_check(front)
        # A real trade-off: several points survive, several are pruned.
        assert 1 < len(front["front"]) < len(points)

    def test_provenance_records_real_margins(self):
        report = make_report([
            ("aa", {"speed": 2.0, "watts": 1.0}),
            ("bb", {"speed": 1.0, "watts": 2.0}),
        ])
        front = pareto_front(report)
        assert [p["job_id"] for p in front["front"]] == ["aa"]
        dominated = front["dominated"][0]
        assert dominated["job_id"] == "bb"
        margins = dominated["dominated_by"][0]["margins"]
        assert margins == {"speed": 1.0, "watts": -1.0}

    def test_unscored_points_are_set_aside(self):
        report = make_report([
            ("aa", {"speed": 2.0, "watts": 1.0}),
            ("bb", {"speed": 1.0}),  # missing watts
            ("cc", None),            # failed job
            ("dd", {"speed": 9.0, "watts": 0.1}),  # exhausted, stopped early
        ], exhausted=("dd",))
        front = pareto_front(report)
        assert front["unscored"] == ["bb", "cc", "dd"]
        assert [p["job_id"] for p in front["front"]] == ["aa"]

    def test_knee_is_the_balanced_point(self):
        report = make_report([
            ("fast", {"speed": 10.0, "watts": 10.0}),
            ("slow", {"speed": 1.0, "watts": 1.0}),
            ("knee", {"speed": 8.0, "watts": 3.0}),
        ])
        front = pareto_front(report)
        assert front["knee"] == "knee"
        assert [p for p in front["front"] if p["knee"]][0]["job_id"] == "knee"

    def test_front_is_byte_stable(self):
        report = make_report([
            ("aa", {"speed": 2.0, "watts": 1.0}),
            ("bb", {"speed": 1.0, "watts": 0.5}),
        ])
        assert front_json(pareto_front(report)) == front_json(
            pareto_front(report)
        )
        assert pareto_front(report)["schema"] == SCHEMA

    def test_objective_override(self):
        report = make_report([
            ("aa", {"speed": 2.0, "watts": 1.0}),
            ("bb", {"speed": 1.0, "watts": 0.5}),
        ])
        # Single-objective view: only the fastest survives.
        front = pareto_front(report, objectives=[("speed", "max")])
        assert [p["job_id"] for p in front["front"]] == ["aa"]

    def test_acceptance_check_rejects_corrupt_fronts(self):
        report = make_report([
            ("aa", {"speed": 2.0, "watts": 1.0}),
            ("bb", {"speed": 1.0, "watts": 2.0}),
        ])
        front = pareto_front(report)
        # Forge a dominated point onto the front.
        front["front"].append({
            "job_id": "bb",
            "params": {}, "knee": False,
            "metrics": {"speed": 1.0, "watts": 2.0},
        })
        front["dominated"] = []
        with pytest.raises(AssertionError, match="dominated"):
            pareto_acceptance_check(front)

    def test_empty_front_fails_acceptance(self):
        front = pareto_front(make_report([("aa", None)]))
        with pytest.raises(AssertionError, match="empty"):
            pareto_acceptance_check(front)


class TestExports:
    def report(self):
        return make_report([
            ("aa", {"speed": 2.0, "watts": 1.0}),
            ("bb", {"speed": 1.0, "watts": 0.5}),
            ("cc", {"speed": 0.5, "watts": 0.9}),
        ])

    def test_csv_layout(self):
        front = pareto_front(self.report())
        csv = front_csv(front)
        header, *rows = csv.strip().split("\n")
        assert header == "job_id,p,speed,watts,knee"
        assert len(rows) == len(front["front"])
        assert csv == front_csv(pareto_front(self.report()))  # byte-stable

    def test_ascii_scatter_marks_classes(self):
        front = pareto_front(self.report())
        plot = ascii_scatter(front, width=32, height=8)
        assert "*" in plot or "K" in plot
        assert "." in plot  # cc is dominated by bb
        assert plot == ascii_scatter(front, width=32, height=8)
