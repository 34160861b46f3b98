"""Sweep engine: one topology x frequency sweep, cold then warm.

Runs the sweep twice through :func:`repro.dse.run_sweep`, the path
``repro sweep`` takes, on a two-worker pool: a cold pass that simulates
every design point, and a warm pass into a fresh sweep directory that
shares the cold pass's result cache, so every point is a
content-addressed hit.  Two gates:

* **determinism** — the warm pass writes a byte-identical
  ``report.json`` and ``front.json``, and the front over the paper's
  GIPS / W / E-per-C trio passes the brute-force
  :func:`~repro.dse.pareto_acceptance_check`;
* **caching** — the warm pass is at least **5x** faster wall-to-wall.

The deterministic table lands in ``benchmarks/out/dse.txt``; the host
timings in the git-ignored ``farm_throughput.txt`` and ``.json``.
"""

import json
import tempfile
import time
from pathlib import Path

from repro.dse import SweepSpec, pareto_acceptance_check, run_sweep

OUT_DIR = Path(__file__).parent / "out"

#: The bench's sweep: every topology variant at two DVFS points.
SWEEP = {
    "workload": "demo",
    "sweep": {
        "topology": ["lattice", "mesh", "torus"],
        "freq_mhz": [500, 250],
        "seed": [1],
    },
}

WORKERS = 2


def run_pass(root: Path, name: str, cache_dir=None) -> dict:
    started = time.perf_counter()
    report, farm = run_sweep(SweepSpec.from_dict(SWEEP), root / name,
                             num_workers=WORKERS, cache_dir=cache_dir)
    wall_s = time.perf_counter() - started
    return {
        "pass": name,
        "jobs": report["points"],
        "failed": report["summary"]["failed"],
        "cache_hits": farm.to_dict()["cache"]["hits"],
        "wall_s": round(wall_s, 6),
        "jobs_per_sec": round(report["points"] / wall_s, 2),
        "report": (root / name / "report.json").read_bytes(),
        "front": (root / name / "front.json").read_bytes(),
    }


def run(report_table):
    with tempfile.TemporaryDirectory(prefix="bench_sweep_") as text:
        root = Path(text)
        cold = run_pass(root, "cold")
        warm = run_pass(root, "warm", cache_dir=root / "cold" / "cache")
    report = json.loads(cold["report"])
    front = json.loads(cold["front"])
    pareto_acceptance_check(front)
    identical = (cold["report"] == warm["report"]
                 and cold["front"] == warm["front"])
    speedup = cold["wall_s"] / warm["wall_s"]
    points = len(SweepSpec.from_dict(SWEEP).jobs())
    report_table(
        "dse",
        "Sweep: topology x frequency, Pareto front over GIPS/W/E-per-C",
        ["property", "expected", "measured"],
        [
            ["design points", points, report["points"]],
            ["points survived", points, report["summary"]["survived"]],
            ["front size", "1..n", len(front["front"])],
            ["knee point", "1", 1 if front["knee"] else 0],
            ["objectives", 3, len(front["objectives"])],
            ["warm pass byte-identical", True, identical],
            ["report digest", "-", report["digest"][:12]],
            ["front digest", "-", front["digest"][:12]],
        ],
    )
    passes = [{key: p[key] for key in ("pass", "jobs", "cache_hits",
                                       "wall_s", "jobs_per_sec")}
              for p in (cold, warm)]
    report_table(
        "farm_throughput",
        f"Sweep throughput ({points} jobs, {WORKERS} workers)",
        ["pass", "jobs", "cache hits", "wall s", "jobs/s"],
        [list(p.values()) for p in passes],
        notes=f"Warm pass: fresh sweep directory, shared result cache — "
              f"every job is a content-addressed hit, byte-identical to "
              f"re-simulating.  Speedup {speedup:.1f}x (gate: >= 5x).",
    )
    (OUT_DIR / "farm_throughput.json").write_text(
        json.dumps({"sweep": SWEEP, "workers": WORKERS, "passes": passes,
                    "cached_speedup": round(speedup, 2)},
                   indent=2, sort_keys=True) + "\n"
    )
    return cold, warm, identical, speedup


def test_sweep_cold_then_warm(benchmark, report_table):
    cold, warm, identical, speedup = benchmark.pedantic(
        run, args=(report_table,), rounds=1, iterations=1
    )
    assert identical, "warm pass report or front not byte-identical"
    assert cold["failed"] == 0 and cold["cache_hits"] == 0
    assert warm["cache_hits"] == warm["jobs"]  # every job a hit
    # The caching gate: a cached sweep is at least 5x faster.
    assert speedup >= 5.0, f"cached speedup only {speedup:.1f}x"
