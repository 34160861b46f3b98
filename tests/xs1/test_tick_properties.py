"""Differential tests of the core's silent bubble firings.

With fewer runnable threads than pipeline stages, :meth:`XCore._tick`
arms the tick it schedules to fire silently through the bubble edges
before the next issue, and every thread transition and frequency change
disarms it.  Seeded one-slice workloads — ISA spin loops, behavioural
``Compute`` and ``Sleep``, word send/receive on one core and across
cores, frequency steps on and off clock edges, core kills and late
spawns — run on the shipped core and on :class:`PerCycleCore`, a
reference twin defined here that runs one ``_tick`` callback per clock
edge and never arms.  The two must agree exactly: the issue trace in
execution order, the kernel's event count, sequence counter and queue
high-water mark, every core's instruction histogram and slot counters
(also read mid-run, directly and as the ``core.slots_bubble`` series),
every thread, the delivered words, the energy ledger, and the whole
platform's ``snapshot_state()`` at random ``run_until`` stops.
"""

from __future__ import annotations

import random

import pytest

from repro import SwallowSystem, assemble
from repro.sim import Frequency
from repro.xs1 import XCore
from repro.xs1.behavioral import Compute, RecvWord, SendWord, Sleep
from repro.xs1.thread import HardwareThread, StepOutcome

SPIN = """
    ldc r0, {n}
loop:
    subi r0, r0, 1
    bt r0, loop
    freet
"""


class PerCycleCore(XCore):
    """The reference twin: one ``_tick`` callback per clock edge."""

    def _tick(self) -> None:
        self._ticking = False
        rotation = self._rotation
        if not rotation:
            return
        cycle = self.cycle
        for _ in range(len(rotation)):
            thread = rotation[0]
            rotation.rotate(-1)
            if thread.next_issue_cycle > cycle:
                continue
            self.current_thread = thread
            try:
                outcome = thread.step()
            finally:
                self.current_thread = None
            if outcome is not StepOutcome.PAUSED:
                thread.next_issue_cycle = cycle + HardwareThread.PIPELINE_DEPTH
                self.stats.slots_issued += 1
                if self.tracer is not None:
                    self.tracer.record(self.sim.now, self.name, "issue", thread.name)
            break
        else:
            self.stats.bubbles_due += 1
        self._ensure_ticking()


def _ops(rng: random.Random) -> list:
    return [Compute(rng.randint(0, 6)) if rng.random() < 0.6
            else Sleep(rng.randint(1, 6))
            for _ in range(rng.randint(1, 6))]


def _task(ops: list):
    for op in ops:
        yield op


def _producer(chanend, words: list[int], gaps: list[int]):
    for word, gap in zip(words, gaps):
        yield Compute(gap)
        yield SendWord(chanend, word)


def _consumer(chanend, count: int, gaps: list[int], log: list[int]):
    for gap in gaps[:count]:
        yield Sleep(gap) if gap else Compute(0)
        log.append((yield RecvWord(chanend)))


def run_workload(seed: int, per_cycle: bool) -> dict:
    """Build and run seed ``seed``'s workload; returns what it observed.

    Every random draw happens while building, in the same order for both
    cores, so the two runs differ only in how bubbles are ticked.
    """
    rng = random.Random(seed)
    system = SwallowSystem()
    if per_cycle:
        for core in system.cores:
            core.__class__ = PerCycleCore
    tracer = system.trace(kinds=("issue",))
    sim = system.sim
    cores = rng.sample(system.cores, 4)
    period = cores[0].frequency.period_ps
    programs = {n: assemble(SPIN.format(n=n), name=f"spin{n}") for n in range(1, 26)}

    for core in cores:
        for _ in range(rng.randint(0, 2)):
            core.spawn(programs[rng.randint(1, 25)])
        if rng.random() < 0.7:
            system.spawn_task(core, _task(_ops(rng)))
    received: list[list[int]] = []
    for _ in range(rng.randint(1, 2)):
        a = rng.choice(cores)
        b = a if rng.random() < 0.3 else rng.choice(cores)
        channel = system.channel(a, b)
        words = [rng.getrandbits(32) for _ in range(rng.randint(1, 4))]
        send_gaps = [rng.randint(0, 8) for _ in words]
        recv_gaps = [rng.randint(0, 6) for _ in words]
        received.append([])
        system.spawn_task(a, _producer(channel.a, words, send_gaps))
        system.spawn_task(b, _consumer(channel.b, len(words), recv_gaps, received[-1]))

    horizon = 400 * period

    def moment() -> int:
        return rng.randint(1, horizon)

    for _ in range(rng.randint(0, 3)):        # frequency steps
        core = rng.choice(cores)
        mhz = rng.choice((100, 125, 250, 400, 500))
        time = rng.randint(1, 300) * period   # on the initial clock's edges
        if rng.random() < 0.5:
            time += rng.randint(1, period - 1)
        if rng.random() < 0.3:
            # On the core's next edge, queued behind the tick there.
            sim.schedule_at(time, lambda core=core, mhz=mhz: sim.schedule_at(
                core._next_cycle_boundary(),
                lambda: core.set_frequency(Frequency.mhz(mhz))))
        else:
            sim.schedule_at(time, lambda core=core, mhz=mhz:
                            core.set_frequency(Frequency.mhz(mhz)))
    if rng.random() < 0.3:                    # a core kill
        sim.schedule_at(moment(), rng.choice(cores).fail)
    for _ in range(rng.randint(0, 2)):        # late spawns
        core = rng.choice(cores)
        program = programs[rng.randint(1, 25)]
        ops = _ops(rng)
        isa = rng.random() < 0.5

        def spawn(core=core, program=program, ops=ops, isa=isa) -> None:
            if core.failed or core.live_threads >= core.config.max_threads:
                return
            if isa:
                core.spawn(program)
            else:
                system.spawn_task(core, _task(ops))

        sim.schedule_at(moment(), spawn)
    probes: list = []

    def probe() -> None:
        probes.append((
            [(core.stats.slots_issued, core.stats.slots_bubble) for core in cores],
            system.metrics_snapshot().series("core.slots_bubble"),
        ))

    for _ in range(rng.randint(1, 3)):
        sim.schedule_at(moment(), probe)

    stops = []
    for stop in sorted(rng.sample(range(1, horizon), 3)):
        sim.run_until(stop)
        stops.append(system.snapshot_state())
    sim.run()
    return {
        "issue_trace": list(tracer),
        "kernel": (sim.events_processed, sim.snapshot_state()["seq"],
                   sim.queue_depth_high_water),
        "cores": [(dict(core.stats.instructions), core.stats.slots_issued,
                   core.stats.slots_bubble) for core in system.cores],
        "threads": [thread.snapshot_state()
                    for core in system.cores for thread in core.threads],
        "received": received,
        "probes": probes,
        "stops": stops,
        "final": system.snapshot_state(),
        "energy": system.energy_report(),
    }


@pytest.mark.parametrize("seed", range(48))
def test_silent_bubbles_match_per_cycle_ticking(seed):
    shipped = run_workload(seed, per_cycle=False)
    reference = run_workload(seed, per_cycle=True)
    assert shipped["issue_trace"], "the workload issued nothing"
    for key, expected in reference.items():
        assert shipped[key] == expected, key


def test_single_thread_core_fires_bubbles_silently(monkeypatch):
    """One spinning thread: 3 bubbles per issue, one callback per issue."""
    calls = []
    tick = XCore._tick

    def counted(core: XCore) -> None:
        calls.append(core.sim.now)
        tick(core)

    monkeypatch.setattr(XCore, "_tick", counted)
    system = SwallowSystem()
    core = system.core(0)
    core.spawn(assemble(SPIN.format(n=100)))
    system.run()
    issued = core.stats.slots_issued
    assert issued == 202
    assert core.stats.slots_bubble == 3 * (issued - 1)
    assert system.sim.events_processed == issued + core.stats.slots_bubble
    assert len(calls) == issued
