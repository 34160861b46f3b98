"""The XS1-L core model.

A core owns 64 KiB of single-cycle SRAM, up to eight hardware threads, and
a pool of channel-end/timer/lock resources.  Its scheduler reproduces the
four-stage pipeline behaviour behind the paper's Eq. 2: in each clock
cycle at most one thread issues, a given thread can issue at most once
every four cycles, and paused threads consume no slots.  Consequently

    IPS_thread = f / max(4, N_active)      IPS_core = f * min(4, N_active) / 4

emerge from the mechanism rather than being asserted — the Eq. 2 bench
measures them.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from math import inf
from operator import attrgetter
from typing import Callable, Iterable

from repro.network.header import CHANEND_TYPE, ChanendAddress
from repro.sim import EventHandle, Frequency, Simulator
from repro.xs1.assembler import Program
from repro.xs1.chanend import Chanend
from repro.xs1.errors import ResourceError, TrapError
from repro.xs1.fabric import Fabric
from repro.xs1.isa import (
    RES_TYPE_CHANEND,
    RES_TYPE_LOCK,
    RES_TYPE_TIMER,
    EnergyClass,
)
from repro.xs1.memory import Sram
from repro.xs1.resources import LockResource, TimerResource
from repro.xs1.thread import HardwareThread, IsaThread, StepOutcome, ThreadState


@dataclass
class CoreConfig:
    """Static configuration of one core."""

    frequency: Frequency = field(default_factory=lambda: Frequency(500_000_000))
    max_threads: int = 8
    num_chanends: int = 32
    num_timers: int = 10
    num_locks: int = 4
    sram_bytes: int = 64 * 1024


# Hot-path names for XCore._tick: a thread's next issue cycle (so the
# ``min`` over the rotation runs in C) and the pipeline depth.
_ready = attrgetter("ready_cycle")
_DEPTH = HardwareThread.PIPELINE_DEPTH


@dataclass
class CoreStats:
    """Execution statistics used by the energy model and the benches.

    The issue path writes the stored fields; read the properties, which
    first book the silent run in flight (:meth:`settle`).
    """

    #: Completed instructions per energy class, booked so far.
    by_class: Counter = field(default_factory=Counter)
    #: Issue slots used, booked so far.
    issued: int = 0
    #: Bubble slots counted so far *plus* the silent firings still due
    #: on :attr:`armed_tick`; read :attr:`slots_bubble` instead.
    bubbles_due: int = field(default=0, repr=False)
    #: The core's pending tick while it fires silently (see
    #: :meth:`XCore._tick`), else None or a spent handle.
    armed_tick: EventHandle | None = field(default=None, repr=False)
    #: The silent run :attr:`armed_tick` fires, while some of its issue
    #: edges are not yet booked.
    run: "SilentRun | None" = field(default=None, repr=False)

    def settle(self) -> None:
        """Book the issue edges the silent run has fired so far."""
        run = self.run
        if run is not None:
            run.settle()

    @property
    def instructions(self) -> Counter:
        """Completed instructions per energy class, up to the latest event."""
        self.settle()
        return self.by_class

    @property
    def slots_issued(self) -> int:
        """Issue slots a thread used, up to the latest event."""
        self.settle()
        return self.issued

    @property
    def slots_bubble(self) -> int:
        """Issue slots no thread could use, up to the latest event."""
        armed = self.armed_tick
        if armed is None:
            return self.bubbles_due
        self.settle()
        return self.bubbles_due - armed.repeat

    @property
    def total_instructions(self) -> int:
        """Total completed instructions across all energy classes."""
        return sum(self.instructions.values())


class SilentRun:
    """The issue edges of a steady rotation, fired silently.

    :meth:`XCore._arm` arms one when its rotation is in round-robin
    steady state: the thread ``i`` places from the front issues at
    cycles ``turns[i] + pace * j``, ``j = 0, 1, ...``, with ``pace =
    max(4, N)`` for ``N`` threads (Eq. 2).  Each thread has a budget of
    issues it is sure to make without a call
    (:meth:`HardwareThread.silent_budget`); the tick handle fires
    silently through every edge before ``end``, the first issue edge of
    a thread whose budget is spent, and the next call issues there.  So
    the handle's remaining ``repeat`` says which edge the run has
    reached, and :meth:`settle` carries out the issues up to there that
    are not booked yet (each thread's :meth:`~HardwareThread.issue_fired`,
    its ready cycle, the core's and spans' counters and the rotation's
    order), exactly as per-cycle issuing would have left them.  The
    run's firings go into ``bubbles_due`` when it is armed, like any
    silent firing, and each booked issue moves one firing from there to
    ``issued``.
    """

    __slots__ = ("stats", "handle", "rotation", "threads", "spans", "node_id",
                 "turns", "pace", "end", "booked")

    def __init__(self, core: "XCore", handle: EventHandle, turns: list[int],
                 pace: int, end: int):
        self.stats = core.stats
        self.handle = handle
        self.rotation = core._rotation
        self.threads = tuple(core._rotation)
        self.node_id = core.node_id
        self.turns = turns
        self.pace = pace
        self.end = end
        self.booked = [0] * len(turns)
        #: Each distinct span the threads charge; a thread's span is
        #: fixed while it runs (NanoOS and ``spawn_task`` set it before
        #: the first issue).
        self.spans: list = []
        for thread in self.threads:
            span = thread.span
            if span is not None and all(span is not seen for seen in self.spans):
                self.spans.append(span)
                span.runs.append(self)

    def settle(self) -> None:
        """Book the issue edges fired since the last settle."""
        # The cycle of the latest edge the handle has fired.
        last = self.end - 1 - self.handle.repeat
        turns = self.turns
        if last < turns[0]:
            return
        stats = self.stats
        by_class = stats.by_class
        pace = self.pace
        booked = self.booked
        total = 0
        for offset, thread in enumerate(self.threads):
            turn = turns[offset]
            if last < turn:
                break
            done = (last - turn) // pace + 1
            new = done - booked[offset]
            if new:
                booked[offset] = done
                thread.issue_fired(new, by_class)
                thread.ready_cycle = turn + pace * (done - 1) + _DEPTH
                span = thread.span
                if span is not None:
                    span.issued += new
                    by_node = span.issued_by_node
                    by_node[self.node_id] = by_node.get(self.node_id, 0) + new
                total += new
        if total:
            stats.issued += total
            stats.bubbles_due -= total
            self.rotation.rotate(-total)
        if last == self.end - 1:
            self.detach()

    def stop(self) -> None:
        """Book what has fired and end the run (its tick is disarmed)."""
        self.settle()
        if self.stats.run is self:
            self.detach()

    def detach(self) -> None:
        """Nothing more to book: unhook from the core and the spans."""
        self.stats.run = None
        for span in self.spans:
            span.runs.remove(self)


class XCore:
    """One XS1-L core: SRAM + threads + resources + issue scheduler."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        fabric: Fabric,
        config: CoreConfig | None = None,
        name: str | None = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.fabric = fabric
        self.config = config or CoreConfig()
        self.name = name or f"core{node_id}"
        self.memory = Sram(self.config.sram_bytes)
        self.threads: list[HardwareThread] = []
        self._chanends = [Chanend(self, i) for i in range(self.config.num_chanends)]
        self._timers = [TimerResource(i) for i in range(self.config.num_timers)]
        self._locks = [LockResource(i) for i in range(self.config.num_locks)]
        for chanend in self._chanends:
            fabric.attach_chanend(chanend)
        self.stats = CoreStats()
        self._rotation: deque[HardwareThread] = deque()
        self._ticking = False
        self._frequency = self.config.frequency
        self._voltage = 1.0
        self._cycle_anchor = 0
        self._anchor_time = sim.now
        self._loaded_programs: set[int] = set()
        self._next_tid = 0
        self.on_halt_callbacks: list[Callable[[HardwareThread], None]] = []
        self.frequency_listeners: list[Callable[["XCore"], None]] = []
        #: The thread currently holding the issue slot (set around each
        #: ``step()``), so resources it touches — chanends, the
        #: instruction counter — can attribute work to its causal span.
        self.current_thread: HardwareThread | None = None
        #: True once the core has been killed by a fault injection; a
        #: failed core accepts no new threads and runs no further slots.
        self.failed = False
        # A tracer attached mid-run must see every issue from then on.
        sim.trace_listeners.append(self._disarm)

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------

    @property
    def frequency(self) -> Frequency:
        """Current core clock."""
        return self._frequency

    def set_frequency(self, frequency: Frequency) -> None:
        """Dynamic frequency scaling (paper §III.B); takes effect now.

        Listeners in :attr:`frequency_listeners` (e.g. energy accounting)
        are notified *before* the change so they can close their current
        integration window at the old frequency.
        """
        for listener in self.frequency_listeners:
            listener(self)
        self._disarm()
        self._cycle_anchor = self.cycle
        self._anchor_time = self.sim.now
        self._frequency = frequency

    @property
    def voltage(self) -> float:
        """Current supply voltage (1.0 V on original Swallow boards)."""
        return self._voltage

    def set_voltage(self, voltage: float) -> None:
        """Voltage scaling — the full-DVFS extension of newer xCORE parts
        (paper §III.B).  Power scales with V^2 in the energy model; the
        caller is responsible for keeping V >= Vmin(f)
        (:func:`repro.energy.dvfs.min_voltage`)."""
        if voltage <= 0:
            raise ValueError(f"voltage must be positive, got {voltage}")
        for listener in self.frequency_listeners:
            listener(self)
        self._voltage = voltage

    def set_dvfs_operating_point(self, frequency: Frequency, voltage: float) -> None:
        """Atomically change frequency and voltage (one ledger window)."""
        if voltage <= 0:
            raise ValueError(f"voltage must be positive, got {voltage}")
        self.set_frequency(frequency)
        self._voltage = voltage

    @property
    def cycle(self) -> int:
        """Core clock cycles elapsed since construction."""
        elapsed = self.sim.now - self._anchor_time
        return self._cycle_anchor + elapsed // self._frequency.period_ps

    def _next_cycle_boundary(self) -> int:
        """Absolute time of the next clock edge strictly after now."""
        period = self._frequency.period_ps
        elapsed = self.sim.now - self._anchor_time
        return self._anchor_time + (elapsed // period + 1) * period

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------

    @property
    def active_threads(self) -> int:
        """Number of currently runnable threads (the N of Eq. 2)."""
        return sum(1 for t in self.threads if t.runnable)

    @property
    def live_threads(self) -> int:
        """Threads that have not halted."""
        return sum(1 for t in self.threads if not t.halted)

    @property
    def all_halted(self) -> bool:
        """True when every spawned thread has finished."""
        return all(t.halted for t in self.threads)

    def load_program(self, program: Program) -> None:
        """Copy a program's ``.data`` blocks into SRAM (once per program)."""
        if id(program) in self._loaded_programs:
            return
        for address, data in program.data_blocks:
            self.memory.write_block(address, data)
        self._loaded_programs.add(id(program))

    def fail(self) -> None:
        """Kill the core mid-run (fault injection, see :mod:`repro.faults`).

        Every live hardware thread halts immediately — whatever it was
        computing is lost — and the core refuses new work.  Tokens
        already delivered into its chanends stay buffered (nobody will
        read them); tasks managed by :class:`~repro.core.nos.NanoOS`
        should be re-placed *before* calling this (the runtime's
        ``handle_core_failure`` does both in the right order).
        Idempotent.
        """
        if self.failed:
            return
        self.failed = True
        for thread in self.threads:
            thread.halt()

    def spawn(
        self,
        program: Program,
        entry: str | int = "start",
        name: str | None = None,
        regs: dict[str, int] | None = None,
    ) -> IsaThread:
        """Start a hardware thread running ``program`` from ``entry``."""
        if self.failed:
            raise ResourceError(f"{self.name}: core has failed")
        if self.live_threads >= self.config.max_threads:
            raise ResourceError(
                f"{self.name}: all {self.config.max_threads} hardware threads in use"
            )
        self.load_program(program)
        pc = program.entry(entry) if isinstance(entry, str) else entry
        thread = IsaThread(self, self._next_tid, program, entry=pc, name=name)
        self._next_tid += 1
        for reg_name, value in (regs or {}).items():
            thread.registers.write_named(reg_name, value)
        self.threads.append(thread)
        self.on_thread_runnable(thread)
        return thread

    def add_thread(self, thread: HardwareThread) -> None:
        """Attach an externally built thread (behavioural threads use this)."""
        if self.failed:
            raise ResourceError(f"{self.name}: core has failed")
        if self.live_threads >= self.config.max_threads:
            raise ResourceError(
                f"{self.name}: all {self.config.max_threads} hardware threads in use"
            )
        self.threads.append(thread)
        self.on_thread_runnable(thread)

    def claim_tid(self) -> int:
        """Allocate the next thread id (for external thread constructors)."""
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- scheduler callbacks ------------------------------------------------

    def on_thread_runnable(self, thread: HardwareThread) -> None:
        """A thread became runnable; ensure the core is ticking."""
        self._disarm()
        if thread not in self._rotation:
            self._rotation.append(thread)
        self._ensure_ticking()

    def on_thread_paused(self, thread: HardwareThread) -> None:
        """A thread paused; drop it from the issue rotation."""
        self._disarm()
        try:
            self._rotation.remove(thread)
        except ValueError:
            pass

    def on_thread_halted(self, thread: HardwareThread) -> None:
        """A thread halted; drop it and fire completion callbacks."""
        self._disarm()
        try:
            self._rotation.remove(thread)
        except ValueError:
            pass
        for callback in self.on_halt_callbacks:
            callback(thread)

    def _ensure_ticking(self) -> None:
        if self._ticking or not self._rotation:
            return
        self._ticking = True
        self.sim.schedule_at(self._next_cycle_boundary(), self._tick)

    def _disarm(self) -> None:
        """Stop the pending tick's silent firings (the rotation changed).

        The firings already made stay counted: a silent run books its
        issue edges so far, the rest as bubbles.  The pending entry
        keeps its ``(time, seq)`` slot and now calls :meth:`_tick`,
        which sees the change.
        """
        stats = self.stats
        armed = stats.armed_tick
        if armed is not None:
            if stats.run is not None:
                stats.run.stop()
            stats.bubbles_due -= armed.repeat
            armed.repeat = 0
            stats.armed_tick = None

    def _tick(self) -> None:
        """One clock edge: give the issue slot to the first eligible thread.

        The cycle number and the next edge are each computed once, from
        locals; the next tick is scheduled exactly as
        :meth:`_ensure_ticking` would.  The edge is computed after the
        issue because the issuing thread may rescale the clock (a halt
        can trigger a DVFS step, which re-anchors it).

        The edges before the first cycle at which a rotation thread may
        issue are bubbles, and nothing but a change to the rotation or
        the clock can make them otherwise.  So the tick arms the handle
        it just scheduled to fire silently through them (see
        :class:`~repro.sim.engine.EventHandle`); every thread
        transition, :meth:`set_frequency` and a tracer attach disarm
        it.  When the rotation is in round-robin steady state, its
        issue edges are just as certain as long as each thread's
        next issue is within its :meth:`~HardwareThread.silent_budget`
        (quiet ISA instructions, ``Compute`` slots), and they move only
        state that is read through settling properties: the handle
        then also fires through them (a :class:`SilentRun`), up to the
        first issue that needs a call.  A traced run keeps one call
        per issue, since each ``issue`` record needs its own time.  The
        event queue sees exactly the entries per-cycle ticking would
        push.
        """
        self._ticking = False
        rotation = self._rotation
        if not rotation:
            return
        stats = self.stats
        if stats.run is not None:  # the run has fired in full
            stats.run.settle()
        sim = self.sim
        now = sim.now
        cycle = (self._cycle_anchor
                 + (now - self._anchor_time) // self._frequency.period_ps)
        skipped = 0
        for thread in rotation:
            if thread.ready_cycle <= cycle:
                break
            skipped += 1
        else:
            thread = None
            stats.bubbles_due += 1
        if thread is not None:
            # The issuing thread goes to the back: round-robin order.
            rotation.rotate(-1 - skipped)
            self.current_thread = thread
            try:
                outcome = thread.step()
            finally:
                self.current_thread = None
            if outcome is not StepOutcome.PAUSED:  # issued or retired-and-halted
                thread.ready_cycle = cycle + _DEPTH
                stats.issued += 1
                if sim.tracer is not None:
                    sim.tracer.record(now, self.name, "issue", thread.name)
        if self._ticking or not rotation:
            return
        self._ticking = True
        anchor = self._anchor_time
        period = self._frequency.period_ps
        edges = (now - anchor) // period + 1
        handle = sim.schedule_at(anchor + edges * period, self._tick)
        self._arm(handle, self._cycle_anchor + edges, period)

    def _arm(self, handle: EventHandle, edge: int, period: int) -> None:
        """Arm ``handle``, the tick at cycle ``edge``, to fire silently
        through every edge before the next one that needs a call.

        No thread may issue before the lowest ready cycle, so the edges
        up to there are bubbles.  Round-robin issue gives each thread,
        front to back, its turn: its ready cycle, or the edge after the
        previous thread's turn if that is later.  The rotation is in
        steady state when no thread is ready during a bubble before
        another's turn.  Only the three threads that issued last can be
        ready after ``edge``, one per cycle, so the turns then fall
        within four cycles of the first, and each thread issues every
        ``pace = max(4, N)`` cycles from its turn on (Eq. 2): the issue
        edges up to the first one of a thread whose budget is spent
        need no call either.  A transient round (a thread that woke up
        out of turn) ticks normally, and so does a traced run.
        """
        rotation = self._rotation
        end = None
        # With nothing to fire at the front, only the bubbles are certain.
        if self.sim.tracer is None and rotation[0].silent_budget():
            pace = len(rotation)
            if pace < _DEPTH:
                pace = _DEPTH
            turns = []
            turn = edge - 1
            floor = 0  # a thread ready before the latest bubble would issue in it
            end = inf
            for thread in rotation:
                ready = thread.ready_cycle
                if ready < floor:
                    end = None
                    break
                if ready > turn + 1:
                    turn = floor = ready
                else:
                    turn += 1
                turns.append(turn)
                spent = turn + pace * thread.silent_budget()
                if spent < end:
                    end = spent
        if end is None:
            first = min(map(_ready, rotation))
            if first < edge:
                first = edge
            end = first
        else:  # steady: ``pace`` and ``turns`` are set
            first = turns[0]
        if end > edge:
            stats = self.stats
            handle.period = period
            handle.repeat = end - edge
            stats.bubbles_due += end - edge
            stats.armed_tick = handle
            if end > first:
                stats.run = SilentRun(self, handle, turns, pace, end)

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------

    def chanend(self, index: int) -> Chanend:
        """The channel end with local index ``index`` (host-side lookup)."""
        try:
            return self._chanends[index]
        except IndexError:
            raise ResourceError(f"{self.name}: no chanend {index}") from None

    def chanends(self) -> Iterable[Chanend]:
        """All channel ends (allocated or not)."""
        return iter(self._chanends)

    def allocate_chanend(self) -> Chanend:
        """Claim a free channel end (host-level helper and ``getr`` backend)."""
        for chanend in self._chanends:
            if not chanend.allocated:
                chanend.allocated = True
                return chanend
        raise ResourceError(f"{self.name}: out of channel ends")

    def allocate_resource(self, res_type: int) -> int:
        """``getr``: claim a resource, returning its 32-bit identifier."""
        if res_type == RES_TYPE_CHANEND:
            return self.allocate_chanend().address.encode()
        if res_type == RES_TYPE_TIMER:
            for timer in self._timers:
                if not timer.allocated:
                    timer.allocated = True
                    return self._encode_resource(timer.index, RES_TYPE_TIMER)
            raise ResourceError(f"{self.name}: out of timers")
        if res_type == RES_TYPE_LOCK:
            for lock in self._locks:
                if not lock.allocated:
                    lock.allocated = True
                    return self._encode_resource(lock.index, RES_TYPE_LOCK)
            raise ResourceError(f"{self.name}: out of locks")
        raise TrapError(f"{self.name}: getr of unsupported resource type {res_type}")

    def free_resource(self, resource_id: int) -> None:
        """``freer``: release a previously allocated resource."""
        res_type = resource_id & 0xFF
        index = (resource_id >> 8) & 0xFF
        if res_type == RES_TYPE_CHANEND:
            chanend = self._chanend_at(index)
            chanend.allocated = False
            chanend.reset()
        elif res_type == RES_TYPE_TIMER:
            self._timer_at(index).allocated = False
        elif res_type == RES_TYPE_LOCK:
            lock = self._lock_at(index)
            lock.allocated = False
            lock.holder = None
            lock.waiters.clear()
        else:
            raise TrapError(f"{self.name}: freer of unsupported resource {resource_id:#x}")

    def _encode_resource(self, index: int, res_type: int) -> int:
        return (self.node_id << 16) | (index << 8) | res_type

    # An instruction operand names a resource by an 8-bit index; one
    # outside the pool traps, as an unallocated one does.

    def _chanend_at(self, index: int) -> Chanend:
        try:
            return self._chanends[index]
        except IndexError:
            raise TrapError(f"{self.name}: no chanend {index}") from None

    def _timer_at(self, index: int) -> TimerResource:
        try:
            return self._timers[index]
        except IndexError:
            raise TrapError(f"{self.name}: no timer {index}") from None

    def _lock_at(self, index: int) -> LockResource:
        try:
            return self._locks[index]
        except IndexError:
            raise TrapError(f"{self.name}: no lock {index}") from None

    def check_timer(self, resource_id: int, thread: HardwareThread) -> TimerResource:
        """Validate a timer resource id for ``in``; returns the timer."""
        timer = self._timer_at((resource_id >> 8) & 0xFF)
        if not timer.allocated:
            raise TrapError(f"{thread.name}: timer {timer.index} not allocated")
        return timer

    def lock_for(self, resource_id: int, thread: HardwareThread) -> LockResource:
        """Validate a lock resource id; returns the lock."""
        lock = self._lock_at((resource_id >> 8) & 0xFF)
        if not lock.allocated:
            raise TrapError(f"{thread.name}: lock {lock.index} not allocated")
        return lock

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def count_instruction(self, energy_class: EnergyClass) -> None:
        """Record one completed instruction for the energy model."""
        self.stats.by_class[energy_class] += 1
        thread = self.current_thread
        if thread is not None and thread.span is not None:
            thread.span.count_instruction(self.node_id)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.checkpoint)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Canonical core state for a checkpoint bundle.

        Covers clocking, failure status, execution statistics, every
        spawned thread (delegated to the thread's own hook), the SRAM
        digest, and every *active* chanend — allocated, buffering, or
        counting traffic; untouched chanends are omitted to keep bundles
        proportional to activity, and their absence is itself verified
        (an extra active chanend after replay fails the comparison).
        """
        return {
            "node": self.node_id,
            "name": self.name,
            "failed": self.failed,
            "frequency_hz": self._frequency.hz,
            "voltage": self._voltage,
            "next_tid": self._next_tid,
            "ticking": self._ticking,
            "stats": {
                "slots_issued": self.stats.slots_issued,
                "slots_bubble": self.stats.slots_bubble,
                "instructions": {
                    cls.value: self.stats.instructions[cls]
                    for cls in sorted(self.stats.instructions,
                                      key=lambda c: c.value)
                },
            },
            "memory": self.memory.snapshot_state(),
            "threads": [thread.snapshot_state() for thread in self.threads],
            "chanends": {
                str(ce.index): ce.snapshot_state()
                for ce in self._chanends
                if ce.allocated or ce.rx or ce.tx
                or ce.tokens_sent or ce.tokens_received
            },
        }

    def restore_state(self, state: dict) -> None:
        """Verify a replayed core against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, self.name)

    def register_metrics(self, registry) -> None:
        """Publish this core's execution series (lazily collected).

        One ``core.instructions{node=...,opcode_class=...}`` series per
        energy class actually executed, plus issue-slot counters
        (``core.slots_issued``, ``core.slots_bubble``), the scheduler
        gauges (``core.active_threads``, ``core.live_threads``) and the
        blocking counter ``core.thread_pauses``.
        """
        node = str(self.node_id)

        def _collect(emit) -> None:
            labels = {"node": node}
            for energy_class in sorted(self.stats.instructions,
                                       key=lambda c: c.value):
                emit(
                    "core.instructions",
                    {"node": node, "opcode_class": energy_class.value},
                    self.stats.instructions[energy_class],
                )
            emit("core.slots_issued", labels, self.stats.slots_issued)
            emit("core.slots_bubble", labels, self.stats.slots_bubble)
            emit("core.active_threads", labels, self.active_threads)
            emit("core.live_threads", labels, self.live_threads)
            emit("core.thread_pauses", labels,
                 sum(thread.pauses for thread in self.threads))
            emit("core.frequency_hz", labels, self._frequency.hz)

        registry.register_collector(_collect)

    def __repr__(self) -> str:
        return (
            f"<XCore {self.name} node={self.node_id} f={self._frequency} "
            f"threads={len(self.threads)}>"
        )
