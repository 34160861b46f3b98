"""Design-space exploration with Pareto-front extraction.

The Swallow paper's central trade-off is throughput versus power: a
bigger lattice or a faster clock buys GIPS but costs watts, and the
interesting configurations are the ones nothing else beats on *both*
axes at once.  :mod:`repro.dse` turns that question into a pipeline:

1. **Declare the sweep.**  A :class:`~repro.dse.SweepSpec` names the
   workload, the fixed base parameters, the axes to cross (here
   topology x frequency x seed), and the objective axes that will
   score each point.
2. **Run it.**  ``run_sweep`` expands the spec into content-addressed
   farm jobs and executes them on a worker pool; the per-job results
   fold into a canonical, digest-stable report, written with the front
   and the other exports into the sweep directory.
3. **Extract the front.**  ``pareto_front`` splits the points into the
   non-dominated front (with the knee — the most balanced point —
   flagged) and the dominated rest, each pruned point recording *which*
   front point beats it and by how much.  Objectives are a view, not
   part of the simulation: re-scoring the same report over different
   axes prunes different points without re-running anything.
4. **Prove the caching.**  The same spec run into a fresh sweep
   directory sharing the result cache completes without simulating
   anything, and writes byte-identical report and front JSON.

The same flow is ``python -m repro sweep SPEC --dir DIR``.

Run:  python examples/dse_pareto.py
"""

import tempfile
from pathlib import Path

from repro.dse import (
    SweepSpec,
    ascii_scatter,
    pareto_acceptance_check,
    pareto_front,
    run_sweep,
)
from repro.dse.pareto import render as render_front
from repro.dse.report import render as render_report

SPEC = SweepSpec(
    workload="demo",
    sweep={
        "topology": ["lattice", "mesh", "torus"],
        "freq_mhz": [500, 250],
        "seed": [1],
    },
)


def main() -> None:
    print(f"-- sweep {SPEC.sweep_id}: {SPEC.num_points} design points "
          "(topology x frequency) --")
    print("objectives: " + ", ".join(
        f"{obj.key}({obj.goal})" for obj in SPEC.objectives))
    print()

    with tempfile.TemporaryDirectory(prefix="dse_pareto_") as text:
        root = Path(text)

        # Cold pass: every point simulated on a two-worker farm.
        report, farm = run_sweep(SPEC, root / "cold", num_workers=2)
        counts = farm.to_dict()["counts"]
        print(f"-- cold pass: simulated {counts['done']} jobs ----------")
        print(render_report(report))
        print()

        # The non-dominated front over the paper trio of objectives:
        # GIPS up, watts down, pJ/instruction down.
        front = pareto_front(report)
        pareto_acceptance_check(front)  # brute-force: nothing on the
        # front is dominated, every pruned point's dominator is real.
        print("-- pareto front ----------")
        print(render_front(front))
        print()
        print(ascii_scatter(front))
        print()
        print("-- front.csv, as the sweep wrote it ----------")
        print((root / "cold" / "front.csv").read_text().strip())
        print()

        # Objectives are a lens on the finished report.  Dropping the
        # power axis asks "fastest AND most efficient": the slow clock
        # loses on both surviving axes and gets pruned — and every
        # pruned point records who beat it, and by how much.
        speed_front = pareto_front(report, objectives=[
            ("gips", "max"), ("energy_per_instr_pj", "min"),
        ])
        print("-- re-scored without the power axis ----------")
        print(render_front(speed_front))
        print()

        # Warm pass: fresh sweep directory, shared cache — nothing
        # simulated, same bytes out.
        _, warm_farm = run_sweep(
            SPEC, root / "warm", num_workers=2,
            cache_dir=root / "cold" / "cache",
        )
        cache = warm_farm.to_dict()["cache"]
        print(f"-- warm pass: {cache['hits']} cache hits "
              f"({cache['hit_rate']:.0%} hit rate) ----------")
        for name, label in (("report.json", "report"), ("front.json", "front")):
            same = ((root / "warm" / name).read_bytes()
                    == (root / "cold" / name).read_bytes())
            print(f"{label} byte-identical: {same}")


if __name__ == "__main__":
    main()
