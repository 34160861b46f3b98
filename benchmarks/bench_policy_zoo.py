"""The policy-zoo ablation: schedulers x fault campaigns x backup depth.

Runs the tracked sweep spec ``examples/policy_zoo.json`` — every zoo
bundle against seeded fault campaigns of rising severity at
k ∈ {0, 1, 2} on the ``policy_rt`` workload, scored on deadline-miss
rate and energy — and writes the folded report to
``benchmarks/out/policy_zoo.json``.  A cell whose run exhausts its
fault budget is a result scored ``survived: false``.

Asserted properties:

* **k-fault guarantee** — every ``kfault`` cell survives; cells with
  ``kills ≤ k`` finish with zero deadline misses and zero sheds, cells
  beyond k degrade by shedding instead of raising.
* **the guarantee costs something** — at least one plain-budget policy
  fails a severe campaign the kfault policy survives.
* **byte stability** — a repeated sub-sweep produces an identical
  canonical report (CI re-checks this on its smoke sweep).
"""

import json
import pathlib

from repro.dse import SweepSpec, report_json, run_inline

ROOT = pathlib.Path(__file__).resolve().parents[1]
ZOO = ROOT / "examples" / "policy_zoo.json"
OUT = pathlib.Path(__file__).parent / "out"


def run(report_table):
    spec = SweepSpec.from_file(ZOO)
    report = run_inline(spec)
    OUT.mkdir(exist_ok=True)
    (OUT / "policy_zoo.json").write_text(report_json(report))

    # Byte stability: a repeated sub-sweep must reproduce exactly.
    data = spec.to_dict()
    data["sweep"].update(policy=["least_loaded", "kfault"], k=[1],
                         campaign=data["sweep"]["campaign"][:2])
    subset = SweepSpec.from_dict(data)
    identical = report_json(run_inline(subset)) == report_json(
        run_inline(subset)
    )

    summary: dict[str, dict] = {}
    for cell in report["cells"]:
        metrics = cell["metrics"]
        row = summary.setdefault(cell["params"]["policy"], {
            "cells": 0, "survived": 0, "misses": 0, "sheds": 0,
            "replacements": 0, "energy_j": 0.0,
        })
        row["cells"] += 1
        row["survived"] += cell["survived"]
        row["misses"] += metrics["deadline_miss"]
        row["sheds"] += metrics["deadline_shed"]
        row["replacements"] += metrics["replacements"]
        row["energy_j"] += metrics["total_energy_j"]
    rows = [
        [name, f"{row['survived']}/{row['cells']}", row["misses"],
         row["sheds"], row["replacements"], f"{row['energy_j'] * 1e6:.1f}"]
        for name, row in sorted(summary.items())
    ]
    report_table(
        "policy_zoo",
        "Policy zoo: deadline misses vs energy vs fault survival",
        ["policy", "survived", "misses", "sheds", "replacements",
         "energy uJ"],
        rows,
        notes="Cells sweep 3 seeded fault campaigns (1..3 core kills "
              "from 5 us) x k in 0..2; kfault reserves k backup slots "
              "per task and sheds lowest-criticality-first beyond k. "
              f"Report digest {report['digest'][:12]}, "
              f"{len(report['cells'])} cells.",
    )
    return report, identical


def test_policy_zoo(benchmark, report_table):
    report, identical = benchmark.pedantic(
        run, args=(report_table,), rounds=1, iterations=1
    )
    assert identical, "repeated ablation diverged byte-wise"

    cells = report["cells"]
    kfault = [cell for cell in cells if cell["params"]["policy"] == "kfault"]
    assert kfault, "zoo lost its kfault bundle"
    # The k-fault guarantee: always survive; no misses within budget.
    assert all(cell["survived"] for cell in kfault)
    for cell in kfault:
        if cell["params"]["kills"] <= cell["params"]["k"]:
            assert cell["metrics"]["deadline_miss"] == 0, cell
            assert cell["metrics"]["deadline_shed"] == 0, cell
    # Degradation beyond k sheds deterministically somewhere.
    assert any(
        cell["metrics"]["deadline_shed"] for cell in kfault
        if cell["params"]["kills"] > cell["params"]["k"]
    )
    # The guarantee buys survival a plain fault budget cannot.
    plain = [cell for cell in cells
             if cell["params"]["policy"] == "least_loaded"]
    assert any(not cell["survived"] for cell in plain)
    # Every cell scores the three ablation axes.
    for cell in cells:
        assert "deadline_miss_rate" in cell["metrics"]
        assert cell["metrics"]["total_energy_j"] > 0
        assert isinstance(cell["survived"], bool)
    # The written report parses back to the same digest.
    on_disk = json.loads((OUT / "policy_zoo.json").read_text())
    assert on_disk["digest"] == report["digest"]
