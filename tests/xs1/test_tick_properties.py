"""Differential tests of the core's silent firings.

With fewer runnable threads than pipeline stages, :meth:`XCore._tick`
arms the tick it schedules to fire silently through the bubble edges
before the next issue, and with one behavioural thread in a ``Compute``
through the op's remaining issue edges too (a silent run); every thread
transition, frequency change and tracer attach disarms it.  Seeded
one-slice workloads — ISA spin loops, behavioural ``Compute`` ops of a
few to hundreds of slots and ``Sleep``, word send/receive on one core
and across cores, a sleeper waking beside a long ``Compute``, frequency
steps on and off clock edges, core kills and late spawns — run on the
shipped core and on :class:`PerCycleCore`, a reference twin defined here
that runs one ``_tick`` callback per clock edge and never arms.  The two
must agree exactly: the kernel's event count, sequence counter and queue
high-water mark, every core's instruction histogram and slot counters
and every thread's counters (also read mid-run, directly and as metrics
series), the delivered words, the energy ledger, per-span instruction
counts, and the whole platform's ``snapshot_state()`` at random
``run_until`` stops.  Traced runs also agree on the issue trace in
execution order; untraced runs are the ones that take silent runs, and
a tracer attached at a stop sees every issue from there on.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import SwallowSystem, assemble
from repro.sim import Frequency
from repro.xs1 import XCore
from repro.xs1.behavioral import Compute, RecvWord, SendWord, Sleep
from repro.xs1.isa import EnergyClass
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
            if thread.ready_cycle > cycle:
                continue
            self.current_thread = thread
            try:
                outcome = thread.step()
            finally:
                self.current_thread = None
            if outcome is not StepOutcome.PAUSED:
                thread.ready_cycle = cycle + HardwareThread.PIPELINE_DEPTH
                self.stats.issued += 1
                if self.sim.tracer is not None:
                    self.sim.tracer.record(self.sim.now, self.name, "issue", thread.name)
            break
        else:
            self.stats.bubbles_due += 1
        self._ensure_ticking()


def _compute(rng: random.Random) -> Compute:
    """A few slots, or (about one time in three) tens to hundreds of them."""
    if rng.random() < 0.35:
        return Compute(rng.randint(10, 240),
                       rng.choice((EnergyClass.ALU, EnergyClass.MUL)))
    return Compute(rng.randint(0, 6))


def _ops(rng: random.Random) -> list:
    return [_compute(rng) if rng.random() < 0.6 else Sleep(rng.randint(1, 6))
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


def run_workload(seed: int, per_cycle: bool, traced: bool = True,
                 spans: bool = False, attach: bool = False) -> dict:
    """Build and run seed ``seed``'s workload; returns what it observed.

    Every random draw happens while building, in the same order for both
    cores, so the two runs differ only in how edges are ticked.  With
    ``traced`` an ``issue`` tracer records from the start; with
    ``attach`` one is attached at a random ``run_until`` stop instead.
    With ``spans`` every behavioural task is charged to a span (some
    tasks, on any cores, share one), and probes read them.
    """
    rng = random.Random(seed)
    system = SwallowSystem()
    if per_cycle:
        for core in system.cores:
            core.__class__ = PerCycleCore
    tracer = system.trace(kinds=("issue",)) if traced else None
    recorder = system.spans() if spans else None
    shared = recorder.span("shared") if spans else None
    sim = system.sim
    cores = rng.sample(system.cores, 4)
    period = cores[0].frequency.period_ps
    programs = {n: assemble(SPIN.format(n=n), name=f"spin{n}") for n in range(1, 26)}

    def task(core, generator) -> None:
        span = None
        if spans:
            span = (shared if rng.random() < 0.3
                    else recorder.span(f"task{len(recorder.spans)}"))
        system.spawn_task(core, generator, span=span)

    for core in cores:
        for _ in range(rng.randint(0, 2)):
            core.spawn(programs[rng.randint(1, 25)])
        if rng.random() < 0.7:
            task(core, _task(_ops(rng)))
    if rng.random() < 0.5:                    # a sleeper wakes beside a run
        core = rng.choice(cores)
        task(core, _task([Compute(rng.randint(50, 300))]))
        task(core, _task([Sleep(rng.randint(1, 900)), _compute(rng)]))
    received: list[list[int]] = []
    for _ in range(rng.randint(1, 2)):
        a = rng.choice(cores)
        b = a if rng.random() < 0.3 else rng.choice(cores)
        channel = system.channel(a, b)
        words = [rng.getrandbits(32) for _ in range(rng.randint(1, 4))]
        send_gaps = [rng.randint(0, 8) if rng.random() < 0.7
                     else rng.randint(10, 120) for _ in words]
        recv_gaps = [rng.randint(0, 6) for _ in words]
        received.append([])
        task(a, _producer(channel.a, words, send_gaps))
        task(b, _consumer(channel.b, len(words), recv_gaps, received[-1]))

    horizon = 1200 * period

    def moment() -> int:
        return rng.randint(1, horizon)

    for _ in range(rng.randint(0, 3)):        # frequency steps
        core = rng.choice(cores)
        mhz = rng.choice((100, 125, 250, 400, 500))
        time = rng.randint(1, 900) * period   # on the initial clock's edges
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
                system.spawn_task(core, _task(ops), span=shared)

        sim.schedule_at(moment(), spawn)
    probes: list = []
    # Each probe reads one counter of one kind of object, so every
    # reader is the first to touch a run somewhere, with nothing before
    # it booking the run on its behalf.
    readers = [("core", "slots_issued"), ("core", "slots_bubble"),
               ("core", "instructions"), ("thread", "instructions_executed"),
               ("thread", "next_issue_cycle"), ("metrics", "core.slots_issued"),
               ("metrics", "core.slots_bubble"), ("metrics", "core.instructions")]
    if spans:
        readers += [("span", "instructions"), ("span", "instr_by_node")]

    def probe(kind: str, name: str) -> None:
        if kind == "metrics":
            value = system.metrics_snapshot().series(name)
        else:
            objects = {"core": [core.stats for core in cores],
                       "span": recorder.spans if spans else [],
                       "thread": [thread for core in cores
                                  for thread in core.threads]}[kind]
            value = [getattr(each, name) for each in objects]
            value = [dict(each) if isinstance(each, dict) else each
                     for each in value]
        probes.append((kind, name, value))

    for _ in range(rng.randint(4, 10)):
        sim.schedule_at(moment(), lambda reader=rng.choice(readers): probe(*reader))

    stops = []
    attach_at = rng.randrange(3)
    for index, stop in enumerate(sorted(rng.sample(range(1, horizon), 3))):
        sim.run_until(stop)
        probe(*rng.choice(readers))
        stops.append(system.snapshot_state())
        if attach and index == attach_at:
            tracer = system.trace(kinds=("issue",))
    sim.run()
    return {
        "issue_trace": list(tracer) if tracer is not None else None,
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
        "spans": recorder.to_jsonl() if spans else None,
    }


def _assert_same(seed: int, **mode) -> dict:
    shipped = run_workload(seed, per_cycle=False, **mode)
    reference = run_workload(seed, per_cycle=True, **mode)
    for key, expected in reference.items():
        assert shipped[key] == expected, key
    return shipped


@pytest.mark.parametrize("seed", range(48))
def test_silent_bubbles_match_per_cycle_ticking(seed):
    shipped = _assert_same(seed)
    assert shipped["issue_trace"], "the workload issued nothing"


@pytest.mark.parametrize("seed", range(48))
def test_silent_runs_match_per_cycle_ticking(seed):
    """Untraced, so lone ``Compute`` threads fire their slots silently."""
    _assert_same(seed, traced=False)


@pytest.mark.parametrize("seed", range(16))
def test_silent_runs_charge_spans_exactly(seed):
    """Per-span counts read mid-run match, shared spans included."""
    shipped = _assert_same(seed, traced=False, spans=True)
    charged = [json.loads(line).get("instructions")
               for line in shipped["spans"].splitlines()]
    assert any(charged), "no span was charged"


@pytest.mark.parametrize("seed", range(16))
def test_tracer_attached_mid_run_sees_every_issue(seed):
    """A tracer attached at a stop ends the silent runs in flight."""
    _assert_same(seed, traced=False, attach=True)


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


def test_lone_compute_fires_its_slots_silently(monkeypatch):
    """One ``Compute(100)``: the first slot and the halt are the only calls."""
    calls = []
    tick = XCore._tick

    def counted(core: XCore) -> None:
        calls.append(core.sim.now)
        tick(core)

    monkeypatch.setattr(XCore, "_tick", counted)
    system = SwallowSystem()
    core = system.core(0)
    thread = system.spawn_task(core, _task([Compute(100)]))
    system.run()
    assert len(calls) == 2
    assert thread.instructions_executed == 100
    assert core.stats.slots_issued == 101             # the halt takes a slot
    assert core.stats.slots_bubble == 3 * 100
    assert system.sim.events_processed == 101 + 300
