"""Bench: checkpoint capture/restore overhead vs. machine scale.

Long-running campaigns (the overview paper streams across up to 480
cores) only get durability if checkpointing stays cheap as the machine
grows.  We run the seeded fault stream on 16-, 32- and 64-core
machines (whole slices are the build unit — 16 cores each — so the
"1-core" corner of the issue is represented by the single-slice
minimum), capture a full-system bundle mid-run, and measure bundle
size, capture wall-time, and restore wall-time (rebuild + replay +
field-by-field verification).  Results also land as JSON in
``benchmarks/out/checkpoint_overhead.json``.
"""

import gc
import json
import time
from pathlib import Path

from repro.checkpoint import ResumableRun, Snapshot, build_workload

OUT_DIR = Path(__file__).parent / "out"

#: Kernel events to run before capturing — deep enough that queues,
#: ledgers and the campaign RNG all carry non-trivial state.
CAPTURE_AT = 1_500

WORKLOAD = "faults_stream"


def measure(slices_x: int) -> dict:
    params = {"slices_x": slices_x, "words": 12, "seed": 3}
    context = build_workload(WORKLOAD, params)
    cores = len(context.system.cores)
    context.system.sim.run(max_events=CAPTURE_AT)

    # Each timed region starts from a collected heap, so a full
    # collection owed to garbage the build or run left behind (a 40 ms
    # pause on the 64-core heap) is charged to neither capture nor
    # restore; which region it lands in shifts with any allocation
    # elsewhere in the process.
    gc.collect()
    wall = time.perf_counter()
    snapshot = context.capture(setup={"workload": WORKLOAD, "params": params})
    capture_s = time.perf_counter() - wall
    bundle = snapshot.to_json()

    # Restore = validate + rebuild + deterministic replay + verify.
    gc.collect()
    wall = time.perf_counter()
    reloaded = Snapshot.from_json(bundle)
    resumed = ResumableRun.resume(reloaded)
    restore_s = time.perf_counter() - wall
    assert resumed.context.system.sim.events_processed == CAPTURE_AT

    return {
        "slices_x": slices_x,
        "cores": cores,
        "bundle_bytes": len(bundle.encode("utf-8")),
        "capture_ms": round(capture_s * 1e3, 3),
        "restore_ms": round(restore_s * 1e3, 3),
        "events_at_capture": CAPTURE_AT,
    }


def run(report_table):
    points = [measure(slices_x) for slices_x in (1, 2, 4)]
    report_table(
        "checkpoint_overhead",
        "Checkpoint overhead vs. machine scale",
        ["slices", "cores", "bundle KiB", "capture ms", "restore ms"],
        [[p["slices_x"], p["cores"],
          round(p["bundle_bytes"] / 1024, 1),
          p["capture_ms"], p["restore_ms"]] for p in points],
        notes="Capture walks every snapshot_state() hook; restore "
              "replays the workload to the captured event count and "
              "verifies every field.  Bundle size should scale with "
              "core count; capture should stay milliseconds-cheap.",
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "checkpoint_overhead.json").write_text(
        json.dumps({"workload": WORKLOAD, "points": points}, indent=2,
                   sort_keys=True) + "\n"
    )
    return points


def test_checkpoint_overhead(benchmark, report_table):
    points = benchmark.pedantic(run, args=(report_table,), rounds=1,
                                iterations=1)
    by_cores = {p["cores"]: p for p in points}
    assert set(by_cores) == {16, 32, 64}
    # Bundles grow with the machine (more cores, switches, links)...
    sizes = [p["bundle_bytes"] for p in points]
    assert sizes == sorted(sizes)
    # ...but capture stays far cheaper than restore-with-replay.
    for p in points:
        assert p["capture_ms"] < p["restore_ms"]
