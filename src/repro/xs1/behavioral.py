"""Behavioural threads: Python coroutines with hardware-thread timing.

Writing every workload in assembly does not scale, so the core also runs
*behavioural* threads: Python generators that yield operation objects.
Each operation consumes issue slots under exactly the same pipeline rules
as real instructions (one slot per instruction, at most one issue per
thread per four cycles, paused threads cost nothing), so Eq. 2 timing and
the energy accounting hold for behavioural workloads too.

Example::

    def worker(chanend):
        yield Compute(100)            # 100 instructions of work
        word = yield RecvWord(chanend)
        yield SendWord(chanend, word + 1)

    BehavioralThread(core, worker(chanend))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.network.header import ChanendAddress
from repro.network.token import (
    TOKENS_PER_WORD,
    control_token,
    data_token,
    tokens_to_word,
    word_to_tokens,
)
from repro.xs1.errors import TrapError
from repro.xs1.isa import EnergyClass
from repro.xs1.thread import HardwareThread, StepOutcome

if TYPE_CHECKING:
    from repro.xs1.chanend import Chanend
    from repro.xs1.core import XCore


@dataclass
class Compute:
    """Occupy ``instructions`` issue slots of plain computation."""

    instructions: int
    energy_class: EnergyClass = EnergyClass.ALU

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError("instruction count must be non-negative")


@dataclass
class SendWord:
    """Send a 32-bit word on a channel end (one ``out`` instruction).

    The yield's value is True once the word is buffered for
    transmission.  With ``timeout_cycles`` set, waiting longer than
    that for transmit-buffer space abandons the send and the yield's
    value is False — the escape hatch reliable channels need when the
    route ahead is severed and the buffer never drains (a plain send
    would block forever, a *silent stall*).
    """

    chanend: "Chanend"
    value: int
    timeout_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.timeout_cycles is not None and self.timeout_cycles < 1:
            raise ValueError("timeout must be at least one cycle")


@dataclass
class RecvWord:
    """Receive a 32-bit word; the word is the value of the ``yield``."""

    chanend: "Chanend"


@dataclass
class SendToken:
    """Send a single data token."""

    chanend: "Chanend"
    value: int


@dataclass
class RecvToken:
    """Receive a single data token; the token value is the yield's value."""

    chanend: "Chanend"


@dataclass
class SendCt:
    """Send a control token (e.g. ``CT_END`` to close a route).

    Supports ``timeout_cycles`` exactly like :class:`SendWord`.
    """

    chanend: "Chanend"
    code: int
    timeout_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.timeout_cycles is not None and self.timeout_cycles < 1:
            raise ValueError("timeout must be at least one cycle")


@dataclass
class CheckCt:
    """Consume an expected control token; traps on mismatch."""

    chanend: "Chanend"
    code: int


@dataclass
class SetDest:
    """Set a channel end's destination (one ``setd`` instruction)."""

    chanend: "Chanend"
    dest: ChanendAddress


@dataclass
class Sleep:
    """Pause the thread for ``cycles`` core cycles (timer wait)."""

    cycles: int


@dataclass
class RecvPacket:
    """Receive a whole packet: every data-token value up to the END.

    The yield's value is the list of 8-bit data-token values consumed
    before the closing END control token (the END itself is consumed
    but not returned).  With ``timeout_cycles`` set, waiting longer than
    that for the *next* token abandons the receive: any partial packet
    is discarded and the yield's value is ``None`` — the resync
    primitive reliable channels are built on, since a lossy or severed
    link may never deliver the END.

    Non-END control tokens inside the packet trap, like :class:`RecvWord`.
    """

    chanend: "Chanend"
    timeout_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.timeout_cycles is not None and self.timeout_cycles < 1:
            raise ValueError("timeout must be at least one cycle")


Operation = (
    Compute | SendWord | RecvWord | SendToken | RecvToken | SendCt | CheckCt
    | SetDest | Sleep | RecvPacket
)


class BehavioralThread(HardwareThread):
    """A hardware thread driven by a Python generator of operations."""

    def __init__(
        self,
        core: "XCore",
        generator: Generator,
        name: str | None = None,
    ):
        super().__init__(core, core.claim_tid(), name)
        self._generator = generator
        self._current: Operation | None = None
        self._pending_result: object = None
        self._packet_accum: list[int] = []
        self._timeout_handle = None
        core.add_thread(self)

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Scheduling state plus the operation-level behavioural state.

        The generator frame itself is unserializable; what *is* captured
        is everything observable about the thread's progress — which the
        restore replay must reproduce exactly.
        """
        state = super().snapshot_state()
        state["kind"] = "behavioral"
        state["current_op"] = (
            type(self._current).__name__ if self._current is not None else None
        )
        state["compute_left"] = self.compute_left
        state["packet_accum"] = list(self._packet_accum)
        state["timeout_armed"] = self._timeout_handle is not None
        return state

    # -- generator pump -----------------------------------------------------

    def _fetch(self) -> bool:
        """Advance the generator to its next operation.  False at exhaustion."""
        try:
            result, self._pending_result = self._pending_result, None
            self._current = self._generator.send(result)
        except StopIteration:
            self._current = None
            return False
        if isinstance(self._current, Compute):
            self.compute_left = self._current.instructions
        return True

    def _complete(self) -> None:
        self._current = None

    def issue_fired(self, count: int, by_class: dict) -> None:
        """Retire ``count`` slots of the current ``Compute``."""
        by_class[self._current.energy_class] += count
        self.retired += count
        self.compute_left -= count
        if not self.compute_left:
            self._complete()

    # -- one issue slot -----------------------------------------------------

    def step(self) -> StepOutcome:
        """Consume one issue slot on the current operation."""
        if self._current is None:
            if not self._fetch():
                self.halt()
                return StepOutcome.HALTED
            if self._current is None:  # generator yielded None: free slot
                return self._count(EnergyClass.NOP)
        op = self._current
        if isinstance(op, Compute):
            if self.compute_left == 0:
                self._complete()
                return self.step()
            self.compute_left -= 1
            if self.compute_left == 0:
                self._complete()
            return self._count(op.energy_class)
        if isinstance(op, SendWord):
            return self._send_tokens(
                op.chanend, word_to_tokens(op.value), op.timeout_cycles
            )
        if isinstance(op, SendToken):
            return self._send_tokens(op.chanend, [data_token(op.value)])
        if isinstance(op, SendCt):
            return self._send_tokens(
                op.chanend, [control_token(op.code)], op.timeout_cycles
            )
        if isinstance(op, RecvWord):
            return self._recv_word(op.chanend)
        if isinstance(op, RecvToken):
            return self._recv_token(op.chanend)
        if isinstance(op, CheckCt):
            return self._check_ct(op.chanend, op.code)
        if isinstance(op, SetDest):
            op.chanend.set_dest(op.dest)
            self._complete()
            return self._count(EnergyClass.RESOURCE)
        if isinstance(op, Sleep):
            self._complete()
            delay = self.core.frequency.cycles_to_ps(op.cycles)
            self.core.sim.schedule(delay, self.resume)
            self.pause("sleep")
            return StepOutcome.PAUSED
        if isinstance(op, RecvPacket):
            return self._recv_packet(op)
        raise TrapError(f"{self.name}: unknown behavioural operation {op!r}")

    # -- operation implementations -------------------------------------------

    def _count(self, energy_class: EnergyClass) -> StepOutcome:
        self.retired += 1
        self.core.count_instruction(energy_class)
        return StepOutcome.ISSUED

    def _note_receive(self, chanend: "Chanend") -> None:
        """Record producer-span → this-span causality for a completed receive.

        The chanend remembers the span of the last span-tagged token it
        delivered; if both ends carry spans, one :class:`SpanMessage`
        lands in the recorder (and the mark is consumed, so one message
        is recorded per completed receive, not per token).
        """
        src = chanend.last_rx_span
        if src is None:
            return
        chanend.last_rx_span = None
        if self.span is None or self.span is src:
            return
        src.recorder.record_message(
            src, self.span, src.last_send_ps, self.core.sim.now
        )

    def _send_tokens(
        self,
        chanend: "Chanend",
        tokens: list,
        timeout_cycles: int | None = None,
    ) -> StepOutcome:
        if self._timeout_handle is not None:      # woken by space, not timeout
            self._timeout_handle.cancel()
            self._timeout_handle = None
        if chanend.tx_space() < len(tokens):
            chanend.wait_tx_space(self, len(tokens))
            if timeout_cycles is not None:
                delay = self.core.frequency.cycles_to_ps(timeout_cycles)
                self._timeout_handle = self.core.sim.schedule(
                    delay, lambda: self._send_timeout(chanend)
                )
            return StepOutcome.PAUSED
        chanend.push_tx(tokens)
        self._pending_result = True
        self._complete()
        return self._count(EnergyClass.COMM)

    def _send_timeout(self, chanend: "Chanend") -> None:
        """The armed send deadline passed with the buffer still full."""
        self._timeout_handle = None
        if not chanend.cancel_tx_wait(self):
            return                                # space won the race
        self._pending_result = False
        self._complete()
        self.resume()

    def _recv_word(self, chanend: "Chanend") -> StepOutcome:
        if chanend.rx_available() < TOKENS_PER_WORD:
            chanend.wait_rx(self, TOKENS_PER_WORD)
            return StepOutcome.PAUSED
        tokens = []
        for position in range(TOKENS_PER_WORD):
            token = chanend.rx[position]
            if token.is_control:
                raise TrapError(f"{self.name}: control token {token} in word data")
            tokens.append(token)
        for _ in range(TOKENS_PER_WORD):
            chanend.pop_rx()
        self._pending_result = tokens_to_word(tokens)
        self._note_receive(chanend)
        self._complete()
        return self._count(EnergyClass.COMM)

    def _recv_token(self, chanend: "Chanend") -> StepOutcome:
        if chanend.rx_available() < 1:
            chanend.wait_rx(self, 1)
            return StepOutcome.PAUSED
        token = chanend.rx[0]
        if token.is_control:
            raise TrapError(f"{self.name}: unexpected control token {token}")
        chanend.pop_rx()
        self._pending_result = token.value
        self._note_receive(chanend)
        self._complete()
        return self._count(EnergyClass.COMM)

    def _recv_packet(self, op: RecvPacket) -> StepOutcome:
        chanend = op.chanend
        if self._timeout_handle is not None:      # woken by data, not timeout
            self._timeout_handle.cancel()
            self._timeout_handle = None
        while chanend.rx_available() > 0:
            token = chanend.rx[0]
            if token.is_control and not token.is_end:
                raise TrapError(
                    f"{self.name}: unexpected control token {token} in packet"
                )
            chanend.pop_rx()
            if token.is_end:
                self._pending_result = self._packet_accum
                self._packet_accum = []
                self._note_receive(chanend)
                self._complete()
                return self._count(EnergyClass.COMM)
            self._packet_accum.append(token.value)
        chanend.wait_rx(self, 1)
        if op.timeout_cycles is not None:
            delay = self.core.frequency.cycles_to_ps(op.timeout_cycles)
            self._timeout_handle = self.core.sim.schedule(
                delay, lambda: self._recv_packet_timeout(chanend)
            )
        return StepOutcome.PAUSED

    def _recv_packet_timeout(self, chanend: "Chanend") -> None:
        """The armed receive deadline passed with the thread still waiting."""
        self._timeout_handle = None
        if not chanend.cancel_rx_wait(self):
            return                                # data won the race
        self._packet_accum = []                   # drop any partial packet
        self._pending_result = None
        self._complete()
        self.resume()

    def _check_ct(self, chanend: "Chanend", code: int) -> StepOutcome:
        if chanend.rx_available() < 1:
            chanend.wait_rx(self, 1)
            return StepOutcome.PAUSED
        token = chanend.rx[0]
        if not token.is_control or token.value != code:
            raise TrapError(
                f"{self.name}: expected control token {code:#x}, found {token}"
            )
        chanend.pop_rx()
        self._complete()
        return self._count(EnergyClass.COMM)
