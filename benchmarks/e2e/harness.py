"""Measurement for the end-to-end benchmark (see ``run.py`` for the CLI).

One *timed run* builds a workload, runs ``system.run()`` once under a
host clock, verifies every output and digests the simulated statistics.
:func:`end_to_end` repeats timed runs for the requested seconds and
reports medians; :func:`per_layer` alternates untraced and traced runs
and reports where the host time went, layer by layer.

The host this runs on changes speed by up to half, from one second to
the next and for minutes at a time (other tenants, clock changes).  So
:func:`end_to_end` also times a fixed pure-Python event loop between
builds and runs, and scales each build and run by ``REFERENCE_S`` over
the mean of the two loop times around it (:func:`at_reference_speed`):
its end-to-end times are host seconds at the speed where that loop
takes ``REFERENCE_S``.  The raw medians are reported alongside.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spantrace import SCHEDULE_AT, SpanTracer
from workloads import WORKLOADS, Workload, model_digest

PINS = Path(__file__).resolve().parent / "model_digests.json"

#: Builds per invocation at least; ``setup_s`` is their median.
MIN_BUILDS = 7
#: Timed runs per invocation at least; run metrics are their medians.
MIN_RUNS = 3
#: Host seconds :func:`reference_loop` takes at the reference speed.
REFERENCE_S = 0.21
#: The event span of one core issue cycle.
TICK_EVENT = "XCore._tick"


class _RefNode:
    __slots__ = ("peers", "count", "state")

    def __init__(self, peers: list[int]) -> None:
        self.peers = peers
        self.count = 0
        self.state: dict[int, int] = {}

    def fire(self, now: int, seq: int) -> tuple[int, int, int]:
        self.count += 1
        self.state[now & 15] = self.count
        peer = self.peers[self.count % len(self.peers)]
        return now + 1 + (peer & 7), seq, peer


def reference_loop() -> int:
    """A fixed discrete-event loop in plain Python: the host-speed yardstick.

    Heap pops and pushes of tuples, slot objects and small dicts, like
    the simulator's kernel, but independent of ``repro``, so no change
    to the simulator moves it.
    """
    nodes = 4096
    rng = random.Random(0)
    table = [_RefNode([rng.randrange(nodes) for _ in range(4)]) for _ in range(nodes)]
    queue = [(i, i, i) for i in range(nodes)]
    seq = nodes
    for _ in range(200_000):
        now, _, index = heapq.heappop(queue)
        seq += 1
        heapq.heappush(queue, table[index].fire(now, seq))
    return seq


def time_reference_loop() -> float:
    """Host seconds of one :func:`reference_loop`."""
    gc.collect()
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


@dataclass
class RunRecord:
    """One timed run: host times, verdict and the public counters."""

    build_s: float
    wall_s: float
    ops: int
    failed: int
    digest: str
    sim_ps: int
    instructions: int
    slots_issued: int
    slots_bubble: int
    events: int
    queue_pushes: int
    queue_hwm: int
    token_hops: int
    bits: int
    routes_opened: int
    tokens_delivered: int
    adc_samples: int
    placements: int
    dvfs_steps: int
    replacements: int
    faults_injected: int
    report_s: float = 0.0


def build(name: str, seed: int, sizes: dict | None = None) -> Workload:
    """Build workload ``name`` for ``seed`` (``sizes`` overrides defaults)."""
    return WORKLOADS[name](seed, **(sizes or {}))


def timed_run(name: str, seed: int, sizes: dict | None = None,
              tracer: SpanTracer | None = None, report: bool = False) -> RunRecord:
    """Build, run and verify one workload instance.

    Nothing runs during a build, so the kernel's counters and simulated
    time at the end of the run cover the run alone; queue pushes include
    the events the build scheduled.

    With a ``tracer`` (already installed), the spans recorded while
    building are dropped before the run and the tracer is uninstalled
    when the run ends.  ``report`` also times a full
    ``energy_report()`` after the run.
    """
    start = perf_counter()
    workload = build(name, seed, sizes)
    build_s = perf_counter() - start
    if tracer is not None:
        tracer.clear()
    system = workload.system
    sim = system.sim
    gc.collect()
    start = perf_counter()
    system.run()
    wall_s = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()      # the checks below are not part of the run
    verdict = workload.verify()
    digest = model_digest(system, verdict.outputs)
    report_s = 0.0
    if report:
        start = perf_counter()
        system.energy_report()
        report_s = perf_counter() - start
    fabric = system.topology.fabric
    nos, campaign = workload.nos, workload.campaign
    record = RunRecord(
        build_s=build_s,
        wall_s=wall_s,
        ops=verdict.ops,
        failed=verdict.failed,
        digest=digest,
        sim_ps=sim.now,
        instructions=sum(core.stats.total_instructions for core in system.cores),
        slots_issued=sum(core.stats.slots_issued for core in system.cores),
        slots_bubble=sum(core.stats.slots_bubble for core in system.cores),
        events=sim.events_processed,
        queue_pushes=sim.snapshot_state().get("seq", 0),
        queue_hwm=sim.queue_depth_high_water,
        token_hops=sum(link.tokens_carried for link in fabric.links),
        bits=sum(link.bits_carried for link in fabric.links),
        routes_opened=sum(sw.routes_opened for sw in fabric.switches.values()),
        tokens_delivered=sum(sw.tokens_delivered for sw in fabric.switches.values()),
        adc_samples=sum(board.measurement.samples_taken
                        for board in system.machine.slices),
        placements=(len(nos.tasks) + nos.replacements) if nos is not None else 0,
        dvfs_steps=nos.dvfs.steps if nos is not None and nos.dvfs is not None else 0,
        replacements=nos.replacements if nos is not None else 0,
        faults_injected=len(campaign.injected) if campaign is not None else 0,
        report_s=report_s,
    )
    del workload, system, sim
    gc.collect()
    return record


def load_pins() -> dict:
    """workload -> seed -> pinned model digest."""
    return json.loads(PINS.read_text())


def _failed_ops(records: list[RunRecord], reference: str) -> int:
    """Failed ops; every op of a run whose digest is off counts as failed."""
    return sum(r.ops if r.digest != reference else r.failed for r in records)


def _reference_digest(name: str, seed: int, sizes: dict | None,
                      records: list[RunRecord]) -> str:
    """The pinned digest (default sizes only), else the first run's."""
    pins = load_pins().get(name, {}) if sizes is None else {}
    return pins.get(str(seed), records[0].digest)


def _result(records: list[RunRecord], failed: int, metrics: dict,
            errors: list[str] = ()) -> dict:
    return {
        "correct": failed == 0 and not errors,
        "attempted": sum(r.ops for r in records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def at_reference_speed(times: list[float], references: list[float]) -> float:
    """Median of ``times`` scaled to the host speed where the loop takes
    :data:`REFERENCE_S`.

    ``times[i]`` was measured between loop times ``references[i]`` and
    ``references[i + 1]``; it is scaled by ``REFERENCE_S`` over their
    mean, so each time is set against the host speed of its own moment.
    """
    return statistics.median(
        time * 2 * REFERENCE_S / (references[i] + references[i + 1])
        for i, time in enumerate(times))


def end_to_end(name: str, seed: int, seconds: float,
               sizes: dict | None = None) -> tuple[dict, dict]:
    """Timed runs for ``seconds`` (at least :data:`MIN_RUNS`), untraced.

    The reference loop is timed before the first build, and after every
    build and every run, so each one sits between two loop times.
    Returns the result object and an info dict of context lines.
    """
    builds, references = [], [time_reference_loop()]
    for _ in range(MIN_BUILDS - MIN_RUNS):
        start = perf_counter()
        workload = build(name, seed, sizes)
        builds.append(perf_counter() - start)
        del workload
        gc.collect()
        references.append(time_reference_loop())
    runs: list[RunRecord] = []
    start = perf_counter()
    while len(runs) < MIN_RUNS or perf_counter() - start < seconds:
        runs.append(timed_run(name, seed, sizes))
        builds.append(runs[-1].build_s)
        references.append(time_reference_loop())
    reference = _reference_digest(name, seed, sizes, runs)
    failed = _failed_ops(runs, reference)
    first = runs[0]
    run_s = at_reference_speed([r.wall_s for r in runs], references[-len(runs) - 1:])
    metrics = {
        "run_s": (run_s, "s"),
        "run_us_per_instr": (run_s / first.instructions * 1e6, "us"),
        "run_us_per_op": (run_s / first.ops * 1e6, "us"),
        "sim_ps_per_run_s": (first.sim_ps / run_s, "ps/s"),
        "setup_s": (at_reference_speed(builds, references), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"runs": len(runs), "builds": len(builds), "ops": first.ops,
            "instructions": first.instructions, "sim_ps": first.sim_ps,
            "wall_s": statistics.median(r.wall_s for r in runs),
            "build_s": statistics.median(builds),
            "reference_loop_s": statistics.median(references),
            "model_digest": first.digest,
            "pinned": sizes is None and str(seed) in load_pins().get(name, {})}
    return _result(runs, failed, metrics), info


def per_layer(name: str, seed: int, seconds: float, sizes: dict | None = None,
              trace_out: str | None = None) -> tuple[dict, dict]:
    """Alternate untraced and traced runs for ``seconds`` (one pair at least).

    Returns the result object and an info dict, as :func:`end_to_end`.
    The result is not correct when the attribution cannot be trusted:
    ``schedule_at`` was not wrapped, or instructions retired without a
    single :data:`TICK_EVENT` span (the issue path was renamed or
    bypassed, so its time would land in ``kernel.self_s``).
    """
    untraced: list[RunRecord] = []
    traced: list[RunRecord] = []
    rollups = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(timed_run(name, seed, sizes, report=True))
        with SpanTracer() as tracer:
            traced.append(timed_run(name, seed, sizes, tracer=tracer))
        skipped = tracer.skipped
        rollups.append(tracer.rollup())
        if trace_out is not None and len(rollups) == 1:
            tracer.write_chrome_trace(trace_out)
        del tracer
        gc.collect()
    records = untraced + traced
    failed = _failed_ops(records, _reference_digest(name, seed, sizes, records))
    rec = untraced[0]
    counts = rollups[0]
    wall = statistics.median(r.wall_s for r in untraced)
    traced_wall = statistics.median(r.wall_s for r in traced)

    def self_s(layer: str) -> float:
        return statistics.median(r.self_s[layer] for r in rollups)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ticks = counts.count(TICK_EVENT, kind="event")
    network_events = counts.count("*", kind="event", layer="network")
    errors = []
    if ".".join(SCHEDULE_AT) in skipped:
        errors.append("schedule_at is not wrapped, so no event spans were recorded")
    if rec.instructions and not ticks:
        errors.append(f"{rec.instructions} instructions retired but no {TICK_EVENT} "
                      "event spans were recorded")
    metrics = {
        "kernel.self_s": (self_s("kernel"), "s"),
        "sim.events": (rec.events, "count"),
        "sim.queue_pushes": (rec.queue_pushes, "count"),
        "sim.event_useful_ratio": (ratio(rec.events, rec.queue_pushes), "ratio"),
        "sim.events_per_instr": (ratio(rec.events, rec.instructions), "ratio"),
        "sim.queue_hwm": (rec.queue_hwm, "count"),
        "sim.events_per_s": (rec.events / wall, "1/s"),
        "sim.self_s": (self_s("sim"), "s"),
        "xs1.tick_events": (ticks, "count"),
        "xs1.issue_per_tick": (ratio(rec.slots_issued, ticks), "ratio"),
        "xs1.self_s": (self_s("xs1"), "s"),
        "xs1.self_us_per_instr": (ratio(self_s("xs1"), rec.instructions) * 1e6, "us"),
        "network.events": (network_events, "count"),
        "network.events_per_token": (ratio(network_events, rec.tokens_delivered), "ratio"),
        "network.self_s": (self_s("network"), "s"),
        "network.self_us_per_token": (
            ratio(self_s("network"), rec.tokens_delivered) * 1e6, "us"),
        "energy.updates": (counts.count("EnergyAccounting.update")
                           + counts.count("CoreEnergyTracker.update"), "count"),
        "energy.self_s": (self_s("energy"), "s"),
        "energy.report_s": (statistics.median(r.report_s for r in untraced), "s"),
        "obs.calls": (counts.count("NullTracer.record")
                      + counts.count("Span.count_instruction"), "count"),
        "obs.self_s": (self_s("obs"), "s"),
        "nos.self_s": (self_s("nos"), "s"),
        "faults.self_s": (self_s("faults"), "s"),
        "other.self_s": (self_s("other"), "s"),
        "trace.overhead": (traced_wall / wall, "ratio"),
        "trace.unattributed_share": (statistics.median(
            1 - roll.root_s / r.wall_s for roll, r in zip(rollups, traced)), "ratio"),
    }
    info = {
        "pairs": len(traced), "spans": counts.spans, "model_digest": rec.digest,
        "traced_wall_s": traced_wall,
        "skipped": " ".join(skipped) or "none",
        "attribution_errors": "; ".join(errors) or "none",
        # Model counts: pinned by the digest, so no optimisation moves them.
        "xs1.instructions": rec.instructions,
        "xs1.slots_issued": rec.slots_issued,
        "xs1.slots_bubble": rec.slots_bubble,
        "network.token_hops": rec.token_hops,
        "network.bits": rec.bits,
        "network.routes_opened": rec.routes_opened,
        "network.tokens_delivered": rec.tokens_delivered,
        "energy.adc_samples": rec.adc_samples,
        "nos.placements": rec.placements,
        "nos.dvfs_steps": rec.dvfs_steps,
        "nos.replacements": rec.replacements,
        "faults.injected": rec.faults_injected,
    }
    return _result(records, failed, metrics, errors), info
