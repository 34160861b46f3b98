"""DSE engine: a topology x frequency sweep, folded and Pareto-pruned.

Runs a small inline sweep (the fast path the farm workers share result
documents with), extracts the non-dominated front over the paper's
GIPS / W / E-per-C trio, and verifies the engine's determinism: two
folds of the same sweep must produce byte-identical ``dse-report/1``
and ``pareto-front/1`` documents.
"""

from repro.dse import (
    SweepSpec,
    front_json,
    pareto_acceptance_check,
    pareto_front,
    report_json,
    run_inline,
)

#: The bench's sweep: every topology variant at two DVFS points.
SWEEP = {
    "workload": "demo",
    "sweep": {
        "topology": ["lattice", "mesh", "torus"],
        "freq_mhz": [500, 250],
        "seed": [1],
    },
}


def run(report_table):
    spec = SweepSpec.from_dict(SWEEP)
    report = run_inline(spec)
    front = pareto_front(report)
    pareto_acceptance_check(front)
    identical = (
        report_json(report) == report_json(run_inline(spec))
        and front_json(front) == front_json(pareto_front(report))
    )
    survived = report["summary"]["survived"]
    rows = [
        ["design points", spec.num_points, len(report["cells"])],
        ["points survived", spec.num_points, survived],
        ["front size", "1..n", len(front["front"])],
        ["knee point", "1", 1 if front["knee"] else 0],
        ["objectives", 3, len(front["objectives"])],
        ["report byte-identical x2", True, identical],
        ["report digest", "-", report["digest"][:12]],
        ["front digest", "-", front["digest"][:12]],
    ]
    report_table(
        "dse",
        "DSE: topology x frequency sweep, Pareto front over GIPS/W/E-per-C",
        ["property", "expected", "measured"],
        rows,
    )
    return report, front, identical


def test_dse_sweep(benchmark, report_table):
    report, front, identical = benchmark.pedantic(
        run, args=(report_table,), rounds=1, iterations=1
    )
    assert identical, "dse report or front not byte-stable"
    assert len(front["front"]) >= 1
    assert report["summary"]["failed"] == 0
