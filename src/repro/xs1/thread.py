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
from repro.xs1.executor import StepOutcome
from repro.xs1.registers import RegisterFile

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
        self.regs = RegisterFile()
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
        self.pc = entry
        self._table = program.issue_table

    def take_event(self, vector: int | None) -> None:
        """Dispatch to the event vector: the next issue starts there."""
        if not self.waiting_for_event:
            return
        if vector is None:
            raise TrapError(f"{self.name}: event fired with no vector set")
        self.pc = vector
        super().take_event(vector)

    def snapshot_state(self) -> dict:
        """Scheduling state plus the architectural state: pc + registers."""
        state = super().snapshot_state()
        state["kind"] = "isa"
        state["pc"] = self.pc
        state["program"] = self.program.name
        state["regs"] = self.regs.snapshot()
        return state

    def step(self) -> StepOutcome:
        """Issue the instruction at ``pc`` from the program's issue table.

        An instruction that did not pause retires: the thread counts it
        and :meth:`XCore.count_instruction` books it for the energy model.
        """
        table = self._table
        pc = self.pc
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
