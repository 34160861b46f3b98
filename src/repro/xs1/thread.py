"""Hardware threads.

An XS1-L core schedules up to eight hardware threads with zero
context-switch overhead; a thread occupies a pipeline issue slot only when
it is runnable, and a *paused* thread (blocked on channel input/output, a
lock, or an explicit wait) costs nothing.  This gives the paper's Eq. 2:

    IPS_thread = f / max(4, N_active)
    IPS_core   = f * min(4, N_active) / 4

The base class carries scheduling state; :class:`IsaThread` executes
assembled programs and :class:`~repro.xs1.behavioral.BehavioralThread`
executes Python coroutines with the same timing rules.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from repro.xs1.errors import TrapError
from repro.xs1.executor import QUIET_CAP, StepOutcome
from repro.xs1.registers import RegisterFile, u32

if TYPE_CHECKING:
    from repro.xs1.assembler import Program
    from repro.xs1.core import XCore


_PAUSED = StepOutcome.PAUSED


class ThreadState(Enum):
    """Lifecycle states of a hardware thread."""

    RUNNABLE = "runnable"
    PAUSED = "paused"
    HALTED = "halted"


class HardwareThread:
    """Scheduling state common to ISA and behavioural threads."""

    #: Minimum cycles between issues of the same thread (4-stage pipeline).
    PIPELINE_DEPTH = 4

    def __init__(self, core: "XCore", tid: int, name: str | None = None):
        self.core = core
        self.tid = tid
        self.name = name or f"{core.name}.t{tid}"
        self.state = ThreadState.RUNNABLE
        #: The register file as issued so far; a silent run on the core
        #: issues its instructions lazily, so read :attr:`regs`.
        self.registers = RegisterFile()
        #: The first cycle this thread may issue in, and the
        #: instructions it retired, as booked so far; a silent run on
        #: the core books its slots lazily, so read
        #: :attr:`next_issue_cycle` and :attr:`instructions_executed`.
        self.ready_cycle = 0
        self.retired = 0
        #: Issue slots left in the current ``Compute`` operation; only a
        #: behavioural thread has any.
        self.compute_left = 0
        self.pause_reason: str | None = None
        #: Times this thread blocked (channel, lock, wait) — an
        #: observability counter surfaced as ``core.thread_pauses``.
        self.pauses = 0
        #: True while blocked in ``waiteu`` awaiting an enabled event.
        self.waiting_for_event = False
        #: Resources whose events this thread has enabled (``eeu``).
        self.event_resources: list = []
        #: Active causal span (:mod:`repro.obs.spans`); instructions this
        #: thread issues and tokens it sends are charged to it.
        self.span = None

    @property
    def regs(self) -> RegisterFile:
        """The register file, up to the latest event.

        A caller may write it, so this ends the core's silent run first:
        an ISA thread's budget reads its registers when the core arms
        (:meth:`IsaThread.silent_budget`), and the next tick, which keeps
        its ``(time, seq)`` slot, arms again from what the caller left.
        """
        self.core._disarm()
        return self.registers

    @property
    def next_issue_cycle(self) -> int:
        """The first cycle this thread may issue in, up to the latest event."""
        self.core.stats.settle()
        return self.ready_cycle

    @property
    def instructions_executed(self) -> int:
        """Instructions this thread retired, up to the latest event."""
        self.core.stats.settle()
        return self.retired

    @property
    def runnable(self) -> bool:
        """True when the thread may be given issue slots."""
        return self.state is ThreadState.RUNNABLE

    @property
    def halted(self) -> bool:
        """True once the thread has finished."""
        return self.state is ThreadState.HALTED

    def pause(self, reason: str) -> None:
        """Block the thread; it stops consuming issue slots."""
        if self.state is ThreadState.HALTED:
            raise TrapError(f"{self.name}: cannot pause a halted thread")
        self.state = ThreadState.PAUSED
        self.pause_reason = reason
        self.pauses += 1
        self.core.on_thread_paused(self)

    def resume(self) -> None:
        """Make the thread runnable again (idempotent for runnable threads)."""
        if self.state is ThreadState.HALTED:
            return
        if self.state is ThreadState.RUNNABLE:
            return
        self.state = ThreadState.RUNNABLE
        self.pause_reason = None
        self.core.on_thread_runnable(self)

    def halt(self) -> None:
        """Finish the thread permanently."""
        if self.state is ThreadState.HALTED:
            return
        self.state = ThreadState.HALTED
        self.pause_reason = None
        if self.span is not None:
            self.span.finish(self.core.sim.now)
        self.core.on_thread_halted(self)

    def take_event(self, vector: int | None) -> None:
        """An enabled event fired while waiting: dispatch to its vector."""
        if not self.waiting_for_event:
            return
        self.waiting_for_event = False
        self.resume()

    def step(self) -> StepOutcome:
        """Consume one issue slot.  Implemented by subclasses."""
        raise NotImplementedError

    def silent_budget(self) -> int:
        """How many of its next issues the core may fire without a call
        (see :class:`~repro.xs1.core.SilentRun`): the slots left in the
        current ``Compute``, which only a behavioural thread has."""
        return self.compute_left

    def issue_fired(self, count: int, by_class: dict) -> None:
        """Carry out ``count`` issues within :meth:`silent_budget` that
        the core's silent run fired, booking each retired instruction
        in ``by_class``.  Implemented by subclasses that have a budget."""
        raise NotImplementedError

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical scheduling state for a checkpoint bundle.

        Subclasses extend this with their program state; behavioural
        threads cannot serialize their generator frame, which is exactly
        why restore replays the workload instead of unpickling it — the
        replayed thread must then match this dict field for field.
        """
        return {
            "kind": "thread",
            "tid": self.tid,
            "name": self.name,
            "state": self.state.value,
            "pause_reason": self.pause_reason,
            "instructions_executed": self.instructions_executed,
            "pauses": self.pauses,
            "next_issue_cycle": self.next_issue_cycle,
            "waiting_for_event": self.waiting_for_event,
        }

    def restore_state(self, state: dict) -> None:
        """Verify a replayed thread against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, self.name)


class IsaThread(HardwareThread):
    """A hardware thread executing an assembled :class:`Program`."""

    def __init__(
        self,
        core: "XCore",
        tid: int,
        program: "Program",
        entry: int = 0,
        name: str | None = None,
    ):
        super().__init__(core, tid, name)
        self.program = program
        #: The pc as issued so far; read :attr:`pc`.
        self.ip = entry
        self._table = program.issue_table
        self._quiet = program.quiet_bound
        self._loops = program.loop_table

    @property
    def pc(self) -> int:
        """Index of the next instruction to issue, up to the latest event."""
        self.core.stats.settle()
        return self.ip

    def take_event(self, vector: int | None) -> None:
        """Dispatch to the event vector: the next issue starts there."""
        if not self.waiting_for_event:
            return
        if vector is None:
            raise TrapError(f"{self.name}: event fired with no vector set")
        self.ip = vector
        super().take_event(vector)

    def silent_budget(self) -> int:
        """The quiet instructions this thread is sure to issue next.

        That is the static bound at ``pc``
        (:attr:`Program.quiet_bound <repro.xs1.assembler.Program.quiet_bound>`),
        unless ``pc`` lies in a counted loop
        (:attr:`Program.loop_table <repro.xs1.assembler.Program.loop_table>`)
        that closes with ``bt rX`` at ``back`` after a ``subi rX, rX, k``
        at ``dec``.  Its ``bt`` next tests ``c = rX - k`` (mod 2**32)
        while the ``subi`` is still ahead in this turn, else ``c = rX``,
        and then ``c - k``, ``c - 2k``, ...: when ``k`` divides ``c`` the
        loop turns ``c // k`` more times before it falls through, so the
        budget is the issues through the ``bt``, ``c // k`` whole turns
        and the quiet bound after the loop, at most :data:`QUIET_CAP`.
        When ``k`` does not divide ``c`` the counter wraps past 0, and
        the static bound holds.

        The budget depends on a register read when the core arms its
        silent run, so nothing but the thread's own issues may write its
        registers while the core is armed.  That holds: :meth:`XCore.spawn
        <repro.xs1.core.XCore.spawn>` writes them before the thread is
        runnable, registers always hold 32-bit unsigned values, and a
        host reaches a running thread's registers only through
        :attr:`regs`, which disarms the core (:meth:`snapshot_state`,
        which only reads them, settles instead).
        """
        ip = self.ip
        bound = self._quiet
        if not 0 <= ip < len(bound):
            return 0
        loop = self._loops[ip]
        if loop is not None:
            counter, step, before, rest, turn = loop
            tested = self.registers.values[counter]
            if before:
                tested = u32(tested - step)
            turns, left = divmod(tested, step)
            if not left:
                budget = rest + turns * turn
                return budget if budget < QUIET_CAP else QUIET_CAP
        return bound[ip]

    def issue_fired(self, count: int, by_class: dict) -> None:
        """Issue ``count`` quiet instructions from the issue table, as
        :meth:`step` would have in their slots."""
        table = self._table
        core = self.core
        for _ in range(count):
            handler, args, energy_class = table[self.ip]
            handler(core, self, args)
            by_class[energy_class] += 1
        self.retired += count

    def snapshot_state(self) -> dict:
        """Scheduling state plus the architectural state: pc + registers."""
        state = super().snapshot_state()
        state["kind"] = "isa"
        state["pc"] = self.pc
        state["program"] = self.program.name
        # ``pc`` settled the core; a capture only reads, so it leaves the
        # silent run armed rather than going through :attr:`regs`.
        state["regs"] = self.registers.snapshot()
        return state

    def step(self) -> StepOutcome:
        """Issue the instruction at ``pc`` from the program's issue table.

        An instruction that did not pause retires: the thread counts it
        and :meth:`XCore.count_instruction` books it for the energy model.
        """
        table = self._table
        pc = self.ip
        if not 0 <= pc < len(table):
            raise TrapError(
                f"{self.name}: pc {pc} outside program "
                f"{self.program.name!r} of {len(table)} instructions"
            )
        handler, args, energy_class = table[pc]
        outcome = handler(self.core, self, args)
        if outcome is not _PAUSED:  # issued or halting both retire
            self.retired += 1
            self.core.count_instruction(energy_class)
        return outcome
