"""Differential tests of the core's silent firings.

:meth:`XCore._tick` arms the tick it schedules to fire silently through
the bubble edges before the next issue and, when its rotation is in
round-robin steady state, through the issue edges each thread is sure of
(quiet ISA instructions, ``Compute`` slots) up to the first that needs a
call (a silent run); every thread transition, frequency change and
tracer attach disarms it.  Seeded one-slice workloads run on the shipped
core and on :class:`PerCycleCore`, a reference twin defined here that
runs one ``_tick`` callback per clock edge and never arms: behavioural
``Compute`` ops of a few to hundreds of slots and ``Sleep``, word
send/receive on one core and across cores, a sleeper waking beside a
long ``Compute``, and ISA rotations of one to eight threads whose loops
run for different lengths, touch SRAM, read the clock, call subroutines
and jump through registers, beside ``apps.kernels`` programs, behavioural
``Compute`` threads and a thread woken by an ``in``; counted ``subi``/
``bt`` loops of 1 to 5,000 turns at steps of 1 and 3, whose counters may
wrap past 0; all under frequency steps on and off clock edges, core
kills, late spawns and host writes to a looping thread's registers.
The two must
agree exactly: the kernel's event count, sequence counter and queue
high-water mark, every core's instruction histogram and slot counters
and every thread's counters, pc and registers (also read mid-run,
directly and as metrics series), the delivered words, the energy ledger,
per-span instruction counts, and the whole platform's
``snapshot_state()`` at random ``run_until`` stops.  Traced runs also
agree on the issue trace in execution order; untraced runs are the ones
that take silent runs, and a tracer attached at a stop sees every issue
from there on.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import SwallowSystem, assemble
from repro.apps import kernels
from repro.sim import Frequency
from repro.xs1 import TrapError, XCore
from repro.xs1.behavioral import Compute, RecvWord, SendWord, Sleep
from repro.xs1.executor import QUIET_CAP
from repro.xs1.isa import EnergyClass
from repro.xs1.thread import HardwareThread, IsaThread, StepOutcome

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


def _perturb(system, rng: random.Random, cores: list, horizon: int,
             pick_program, shared) -> None:
    """Frequency steps on and off clock edges, maybe a core kill, and
    late spawns of ISA programs (``pick_program()``) or tasks."""
    sim = system.sim
    period = cores[0].frequency.period_ps

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
        program = pick_program()
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


def _observe(system, rng: random.Random, cores: list, horizon: int,
             readers: list, recorder=None, traced: bool = True,
             attach: bool = False, until: int | None = None) -> dict:
    """Probe counters at random moments, stop three times to snapshot the
    platform, run to the end (or to ``until``), and return everything
    observed.

    Each probe reads one counter of one kind of object, so every reader
    is the first to touch a run somewhere, with nothing before it booking
    the run on its behalf.
    """
    sim = system.sim
    tracer = system.trace(kinds=("issue",)) if traced else None
    probes: list = []

    def probe(kind: str, name: str) -> None:
        if kind == "metrics":
            value = system.metrics_snapshot().series(name)
        else:
            threads = [thread for core in cores for thread in core.threads]
            objects = {"core": [core.stats for core in cores],
                       "span": recorder.spans if recorder is not None else [],
                       "thread": threads,
                       "isa": [each for each in threads
                               if isinstance(each, IsaThread)]}[kind]
            value = [getattr(each, name) for each in objects]
            value = [each.snapshot() if name == "regs"
                     else dict(each) if isinstance(each, dict) else each
                     for each in value]
        probes.append((kind, name, value))

    for _ in range(rng.randint(4, 10)):
        sim.schedule_at(rng.randint(1, horizon),
                        lambda reader=rng.choice(readers): probe(*reader))

    stops = []
    attach_at = rng.randrange(3)
    for index, stop in enumerate(sorted(rng.sample(range(1, horizon), 3))):
        sim.run_until(stop)
        probe(*rng.choice(readers))
        stops.append(system.snapshot_state())
        if attach and index == attach_at:
            tracer = system.trace(kinds=("issue",))
    if until is None:
        sim.run()
    else:
        sim.run_until(until)
    return {
        "issue_trace": list(tracer) if tracer is not None else None,
        "kernel": (sim.events_processed, sim.snapshot_state()["seq"],
                   sim.queue_depth_high_water),
        "cores": [(dict(core.stats.instructions), core.stats.slots_issued,
                   core.stats.slots_bubble) for core in system.cores],
        "threads": [thread.snapshot_state()
                    for core in system.cores for thread in core.threads],
        "probes": probes,
        "stops": stops,
        "final": system.snapshot_state(),
        "energy": system.energy_report(),
        "spans": recorder.to_jsonl() if recorder is not None else None,
    }


#: Counters every workload probes: (kind of object, name).
READERS = [("core", "slots_issued"), ("core", "slots_bubble"),
           ("core", "instructions"), ("thread", "instructions_executed"),
           ("thread", "next_issue_cycle"), ("metrics", "core.slots_issued"),
           ("metrics", "core.slots_bubble"), ("metrics", "core.instructions")]


def run_workload(seed: int, per_cycle: bool, traced: bool = True,
                 spans: bool = False, attach: bool = False) -> dict:
    """Build and run seed ``seed``'s behavioural workload (beside ISA spin
    loops); returns what it observed.

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
    recorder = system.spans() if spans else None
    shared = recorder.span("shared") if spans else None
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
    _perturb(system, rng, cores, horizon,
             lambda: programs[rng.randint(1, 25)], shared)
    readers = READERS + ([("span", "instructions"), ("span", "instr_by_node")]
                         if spans else [])
    observed = _observe(system, rng, cores, horizon, readers, recorder,
                        traced, attach)
    observed["received"] = received
    return observed


#: Register-only loop-body instructions (quiet), and ones that touch
#: SRAM or read the clock (they end a silent run).
QUIET_OPS = ("add r1, r1, r0", "mul r2, r1, r0", "xor r3, r3, r2",
             "shli r4, r0, 3", "mov r5, r1", "nop", "eqi r6, r0, 3",
             "bitrev r7, r1", "ldaw r8, r1, 2", "lsu r6, r1, r0", "clz r7, r3")
LOUD_OPS = ("stw r1, r9, 0", "ldw r2, r9, 0", "ldw r3, r9, 1", "gettime r10")

RECEIVER = """
    ldc r2, {words}
recv:
    in r1, r0
    add r3, r3, r1
    subi r2, r2, 1
    bt r2, recv
    freet
"""


def _isa_program(rng: random.Random, index: int):
    """A loop of 1-30 turns over up to four quiet instructions; some
    loops also touch SRAM or read the clock, call a subroutine (``bl``/
    ``ret``) or jump through a register (``bru``)."""
    body = [rng.choice(QUIET_OPS) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:
        body.insert(rng.randint(0, len(body)), rng.choice(LOUD_OPS))
    if rng.random() < 0.25:
        body.append("bl sub")
    if rng.random() < 0.2:
        after = 2 + len(body) + 2             # the subi below the bru
        body += [f"ldc r5, {after}", "bru r5"]
    source = "\n".join([
        f"ldc r0, {rng.randint(1, 30)}",
        f"ldc r9, {0x8000 + 8 * index}",
        "loop:", *body,
        "subi r0, r0, 1", "bt r0, loop", "freet",
        "sub:", "addi r11, r11, 1", "ret",
    ])
    return assemble(source, name=f"loop{index}")


def run_isa_workload(seed: int, threads: int, per_cycle: bool,
                     traced: bool = False, attach: bool = False) -> dict:
    """Build and run seed ``seed``'s ISA workload; returns what it observed.

    The first core runs ``threads`` ISA threads (a rotation of up to
    eight): loops of different lengths, and receivers that block on
    ``in`` until a producer elsewhere sends, perhaps beside a
    behavioural thread that computes and sleeps; three more cores run a
    few loops, an ``apps.kernels`` program or behavioural tasks.  Probes
    also read ISA threads' ``pc`` and ``regs``.
    """
    rng = random.Random(seed)
    system = SwallowSystem()
    if per_cycle:
        for core in system.cores:
            core.__class__ = PerCycleCore
    cores = rng.sample(system.cores, 4)
    period = cores[0].frequency.period_ps
    made = []

    def program():
        made.append(_isa_program(rng, len(made)))
        return made[-1]

    suite = [kernels.memcpy_words(6), kernels.dot_product(5),
             kernels.checksum32(4), kernels.bubble_sort(5),
             kernels.matrix_multiply(2), kernels.fibonacci(8)]
    for core in cores[1:]:
        for _ in range(rng.randint(0, 3)):
            core.spawn(program())
        if rng.random() < 0.5:
            kernel = rng.choice(suite)
            words = 4 if kernel.name == "matmul" else 8
            kernel.load_inputs(core, [rng.getrandbits(32) for _ in range(words)],
                               [rng.getrandbits(32) for _ in range(words)])
            core.spawn(kernel.program)
        if rng.random() < 0.5:
            system.spawn_task(core, _task(_ops(rng)))
    main = cores[0]
    for _ in range(threads):
        senders = [core for core in cores[1:] if core.live_threads < 8]
        if senders and rng.random() < 0.3:
            # A thread that blocks on ``in`` beside the spinning ones; a
            # behavioural producer elsewhere wakes it once per word.
            channel = system.channel(rng.choice(senders), main)
            words = [rng.getrandbits(32) for _ in range(rng.randint(1, 3))]
            gaps = [rng.randint(0, 120) for _ in words]
            main.spawn(assemble(RECEIVER.format(words=len(words)), name="receiver"),
                       regs={"r0": channel.b.address.encode()})
            system.spawn_task(channel.a.core, _producer(channel.a, words, gaps))
        else:
            main.spawn(program())
    if threads < 8 and rng.random() < 0.6:    # a mixed rotation that sleeps
        system.spawn_task(main, _task(_ops(rng)))

    horizon = 1200 * period
    _perturb(system, rng, cores, horizon, program, None)
    readers = READERS + [("isa", "pc"), ("isa", "regs")]
    return _observe(system, rng, cores, horizon, readers, None, traced, attach)


def _assert_same(seed: int, workload=run_workload, **mode) -> dict:
    shipped = workload(seed, per_cycle=False, **mode)
    reference = workload(seed, per_cycle=True, **mode)
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


def _count_ticks(monkeypatch) -> list:
    calls = []
    tick = XCore._tick

    def counted(core: XCore) -> None:
        calls.append(core.sim.now)
        tick(core)

    monkeypatch.setattr(XCore, "_tick", counted)
    return calls


@pytest.mark.parametrize("seed", range(48))
def test_isa_rotations_match_per_cycle_ticking(seed, monkeypatch):
    """Untraced: ISA rotations of 1-8 threads fire their quiet runs."""
    calls = _count_ticks(monkeypatch)
    shipped = _assert_same(seed, run_isa_workload, threads=1 + seed % 8)
    issued = sum(slots for _, slots, _ in shipped["cores"])
    assert len(calls) < issued, "no issue fired silently"


@pytest.mark.parametrize("seed", range(16))
def test_isa_rotations_traced_match_per_cycle_ticking(seed):
    shipped = _assert_same(seed, run_isa_workload, threads=1 + seed % 8,
                           traced=True)
    assert shipped["issue_trace"], "the workload issued nothing"


@pytest.mark.parametrize("seed", range(16))
def test_tracer_attached_mid_isa_run_sees_every_issue(seed):
    _assert_same(seed, run_isa_workload, threads=8 - seed % 8, attach=True)


DIVIDE = """
    ldc r0, {n}
loop:
    subi r0, r0, 1
    bt r0, loop
    divu r1, r2, r0
    freet
"""


@pytest.mark.parametrize("threads", [1, 2, 3, 4, 5, 8])
def test_divide_by_zero_after_a_quiet_run_traps_alike(threads):
    """The ``divu`` after each loop traps at the same time, in the same
    thread and state, as on the per-cycle twin."""

    def run(per_cycle: bool) -> tuple:
        system = SwallowSystem()
        core = system.core(0)
        if per_cycle:
            core.__class__ = PerCycleCore
        for index in range(threads):
            core.spawn(assemble(DIVIDE.format(n=5 + 3 * index)))
        with pytest.raises(TrapError) as trap:
            system.run()
        return (str(trap.value), system.sim.now, system.snapshot_state())

    shipped, reference = run(False), run(True)
    assert shipped == reference
    assert "division by zero" in shipped[0]


def test_single_thread_core_fires_bubbles_silently(monkeypatch):
    """One spinning thread: 3 bubbles per issue.  The ``ldc`` takes a
    call, and so does the ``freet``; in between, the run the ``ldc``
    arms covers the whole loop, since at the ``subi`` the thread's
    counted-loop budget reads ``r0 = 100`` and counts all 100 turns
    (200 issues): 1 + 1."""
    calls = _count_ticks(monkeypatch)
    system = SwallowSystem()
    core = system.core(0)
    core.spawn(assemble(SPIN.format(n=100)))
    system.run()
    issued = core.stats.slots_issued
    assert issued == 202
    assert core.stats.slots_bubble == 3 * (issued - 1)
    assert system.sim.events_processed == issued + core.stats.slots_bubble
    assert len(calls) == 2


def test_four_thread_core_fires_its_rotation_silently(monkeypatch):
    """Four spinning threads issue every cycle, and each call arms a
    run over the whole rotation.  The first thread's ``ldc`` takes a
    call; the other three still stand at their ``ldc``, outside the
    loop, so their static bound (``ldc``, ``subi``, ``bt``) ends the
    run it arms at the second thread's second ``subi``.  That call
    finds every thread inside its loop, and the run it arms counts each
    one's turns to the end; each ``freet`` takes one: 1 + 1 + 4."""
    calls = _count_ticks(monkeypatch)
    system = SwallowSystem()
    core = system.core(0)
    for _ in range(4):
        core.spawn(assemble(SPIN.format(n=100)))
    system.run()
    issued = core.stats.slots_issued
    assert issued == 4 * 202
    assert core.stats.slots_bubble == 0
    assert system.sim.events_processed == issued
    assert len(calls) == 6


def test_lone_compute_fires_its_slots_silently(monkeypatch):
    """One ``Compute(100)``: the first slot and the halt are the only calls."""
    calls = _count_ticks(monkeypatch)
    system = SwallowSystem()
    core = system.core(0)
    thread = system.spawn_task(core, _task([Compute(100)]))
    system.run()
    assert len(calls) == 2
    assert thread.instructions_executed == 100
    assert core.stats.slots_issued == 101             # the halt takes a slot
    assert core.stats.slots_bubble == 3 * 100
    assert system.sim.events_processed == 101 + 300


# ---------------------------------------------------------------------------
# Counted loops: one silent run through a whole ``subi``/``bt`` loop
# ---------------------------------------------------------------------------

#: Trip counts dealt to counted loops.
TRIPS = (1, 2, 37, 5000)


def _counted_program(rng: random.Random, index: int, trips: int, step: int,
                     start: int | None = None, tail: tuple = ()):
    """A loop of ``trips`` turns that takes ``step`` off ``r0`` per turn,
    over up to four quiet instructions that read but never write it;
    ``start`` overrides the counter's first value and ``tail`` runs after
    the loop."""
    body = [rng.choice(QUIET_OPS) for _ in range(rng.randint(0, 4))]
    body.insert(rng.randint(0, len(body)), f"subi r0, r0, {step}")
    source = "\n".join([
        f"ldc r0, {trips * step if start is None else start}",
        f"ldc r9, {0x8000 + 8 * index}",
        "loop:", *body, "bt r0, loop", *tail, "freet",
    ])
    return assemble(source, name=f"counted{index}")


def run_counted_workload(seed: int, threads: int, per_cycle: bool,
                         event: str | None = None, attach: bool = False) -> dict:
    """Build and run seed ``seed``'s counted-loop workload to a horizon;
    returns what it observed.

    The first core runs ``threads`` counted loops with unequal trip
    counts (:data:`TRIPS`) at a step of 1 or 3; some counters start at a
    value the step does not divide, or at 0, so they wrap past 0 and
    read the static bound or the cap.  After its loop a thread folds its
    registers into one word and stores it, sends it to a behavioural
    receiver on another core, or halts.  A second core runs a few more
    loops beside a behavioural task.  ``event`` schedules a core kill
    (``"kill"``) or a frequency step (``"frequency"``) on the first core
    at a random moment, most likely mid-loop, besides the random
    perturbations; ``attach`` attaches a tracer at one of the stops.
    """
    rng = random.Random(seed)
    system = SwallowSystem()
    if per_cycle:
        for core in system.cores:
            core.__class__ = PerCycleCore
    main, other, receiver = rng.sample(system.cores, 3)
    period = main.frequency.period_ps
    made = []
    received: list[list[int]] = []

    def program(core: XCore | None = None):
        trips = rng.choice(TRIPS)
        step = rng.choice((1, 3))
        start = None
        draw = rng.random()
        if draw < 0.1:
            start = 0                              # wraps
        elif draw < 0.2 and step == 3:
            start = 3 * trips + rng.choice((1, 2))  # no multiple of 3
        # A quiet run after the loop folds what the loop computed into r3.
        tail: tuple = ("xor r3, r3, r1", "xor r3, r3, r2", "add r3, r3, r7")
        regs = None
        draw = rng.random()
        if draw < 0.3:
            tail += ("stw r3, r9, 0", "stw r0, r9, 1")
        elif draw < 0.6 and core is not None:
            channel = system.channel(core, receiver)
            received.append([])
            system.spawn_task(receiver, _consumer(channel.b, 1, [0], received[-1]))
            tail += ("out r10, r3",)
            regs = {"r10": channel.a.address.encode()}
        made.append(_counted_program(rng, len(made), trips, step, start, tail))
        return made[-1], regs

    for _ in range(threads):
        built, regs = program(main)
        main.spawn(built, regs=regs)
    for _ in range(rng.randint(1, 3)):
        built, regs = program(other)
        other.spawn(built, regs=regs)
    system.spawn_task(other, _task(_ops(rng)))

    horizon = 60_000 * period
    if event == "kill":
        system.sim.schedule_at(rng.randint(1, horizon // 2), main.fail)
    elif event == "frequency":
        mhz = rng.choice((100, 250, 400))
        system.sim.schedule_at(rng.randint(1, horizon // 2),
                               lambda: main.set_frequency(Frequency.mhz(mhz)))
    _perturb(system, rng, [main, other], horizon, lambda: program()[0], None)
    readers = READERS + [("isa", "pc"), ("isa", "regs")]
    observed = _observe(system, rng, [main, other], horizon, readers, None,
                        False, attach, until=horizon)
    observed["received"] = received
    return observed


@pytest.mark.parametrize("seed", range(24))
def test_counted_loops_match_per_cycle_ticking(seed, monkeypatch):
    """Untraced rotations of 1-8 counted loops: trips of 1 to 5,000,
    steps of 1 and 3, counters that wrap, stores and sends after the
    loop, under random frequency steps, kills and late spawns."""
    calls = _count_ticks(monkeypatch)
    shipped = _assert_same(seed, run_counted_workload, threads=1 + seed % 8)
    issued = sum(slots for _, slots, _ in shipped["cores"])
    assert len(calls) < issued, "no issue fired silently"


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("event", ["kill", "frequency", "attach"])
def test_counted_loop_interrupted_mid_loop(seed, event):
    """A core kill, a frequency step or a tracer attach mid-loop ends the
    run in flight exactly where per-cycle ticking stands."""
    if event == "attach":
        _assert_same(seed, run_counted_workload, threads=1 + seed % 8, attach=True)
    else:
        _assert_same(seed, run_counted_workload, threads=1 + seed % 8, event=event)


@pytest.mark.parametrize("threads", [1, 4])
def test_host_register_write_mid_loop(threads):
    """A host write through ``thread.regs`` while the core is armed ends
    the silent run, so each loop counts down from the written value as
    on the per-cycle twin: SPIN from 100, ``r0`` set to 3 at cycle 100.
    A run left armed from the old counter would spin all 100 turns."""

    def run(per_cycle: bool) -> tuple:
        system = SwallowSystem()
        core = system.core(0)
        if per_cycle:
            core.__class__ = PerCycleCore
        spawned = [core.spawn(assemble(SPIN.format(n=100)))
                   for _ in range(threads)]
        system.sim.run_until(100 * core.frequency.period_ps)
        for thread in spawned:
            thread.regs.write(0, 3)
        system.run()
        return ([thread.instructions_executed for thread in spawned],
                system.sim.now, system.snapshot_state())

    shipped, reference = run(False), run(True)
    assert shipped == reference
    if threads == 1:
        assert shipped[:2] == ([32], 250_000)


def test_snapshot_mid_loop_leaves_the_run_armed(monkeypatch):
    """A capture only reads the registers: a snapshot mid-loop settles
    the core and leaves its silent run armed, so SPIN still takes two
    calls (the ``ldc`` and the ``freet``), as with no snapshot."""
    calls = _count_ticks(monkeypatch)
    system = SwallowSystem()
    core = system.core(0)
    core.spawn(assemble(SPIN.format(n=100)))
    system.sim.run_until(100 * core.frequency.period_ps)
    system.snapshot_state()
    system.run()
    assert len(calls) == 2


@pytest.mark.parametrize("threads", [1, 4])
def test_wrapping_counter_runs_are_capped(threads, monkeypatch):
    """A counter of 0 at entry wraps: the loop would turn 2**32 times, so
    each budget is capped at ``QUIET_CAP`` and the run ends there with a
    call, short of the horizon, exactly as per-cycle ticking stands.
    One thread calls at its ``ldc`` and where its capped run ends; four
    call at the first ``ldc``, where the others enter their loops (as
    in :func:`test_four_thread_core_fires_its_rotation_silently`), and
    where the first capped budget runs out, which arms the next run."""
    source = "ldc r0, 0\nloop:\nsubi r0, r0, 1\nbt r0, loop\nfreet"

    def run(per_cycle: bool) -> tuple:
        system = SwallowSystem()
        core = system.core(0)
        if per_cycle:
            core.__class__ = PerCycleCore
        for _ in range(threads):
            core.spawn(assemble(source))
        horizon = (QUIET_CAP * 4 + 40_000) * core.frequency.period_ps
        system.sim.run_until(horizon // 2)
        middle = system.snapshot_state()
        system.sim.run_until(horizon)
        return (middle, system.snapshot_state(), system.sim.events_processed,
                dict(core.stats.instructions), core.stats.slots_bubble,
                [thread.regs.snapshot() for thread in core.threads])

    reference = run(True)
    calls = _count_ticks(monkeypatch)
    assert run(False) == reference
    assert len(calls) == {1: 2, 4: 3}[threads]


@pytest.mark.parametrize("threads", [1, 2, 4, 8])
@pytest.mark.parametrize("step", [1, 3])
def test_divide_by_zero_after_a_counted_loop_traps_alike(threads, step):
    """Loops of 5,000, 37, 2 and 1 turns end in a ``divu`` by the spent
    counter: the first to finish traps at the same time, in the same
    thread and state, as on the per-cycle twin, with the others
    mid-loop."""
    source = DIVIDE.replace("subi r0, r0, 1", f"subi r0, r0, {step}")

    def run(per_cycle: bool) -> tuple:
        system = SwallowSystem()
        core = system.core(0)
        if per_cycle:
            core.__class__ = PerCycleCore
        for index in range(threads):
            core.spawn(assemble(source.format(n=step * (5000, 37, 2, 1)[index % 4])))
        with pytest.raises(TrapError) as trap:
            system.run()
        return (str(trap.value), system.sim.now, system.snapshot_state())

    shipped, reference = run(False), run(True)
    assert shipped == reference
    assert "division by zero" in shipped[0]
