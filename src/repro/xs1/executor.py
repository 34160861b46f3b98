"""Instruction execution semantics.

One handler per mnemonic carries out an instruction on behalf of a thread
occupying an issue slot.  Every instruction completes in that single slot
(the XS1's fixed completion time) except communication/lock instructions,
which may *pause* the thread; a paused instruction re-issues in full when
the thread is woken, so handlers must be written to retry idempotently.

:func:`decode` resolves an instruction to its ``(handler, args,
energy_class)`` issue row once per program
(:attr:`repro.xs1.assembler.Program.issue_table`); threads issue from
those rows by ``pc`` and retire the instruction themselves
(:meth:`repro.xs1.thread.IsaThread.step`).

A handler registered ``quiet`` reads and writes only its thread's
registers and pc, and cannot trap while its register operands lie in
the file; it declares the one register it writes beside its flow.
:func:`quiet_bound` counts, per pc, the quiet instructions a thread is
sure to issue next, which a core fires without a call (see
:class:`repro.xs1.core.SilentRun`), and :func:`loop_table` finds the
counted ``subi``/``bt`` loops whose counter tells how many more.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.network.header import CHANEND_TYPE, ChanendAddress
from repro.network.token import (
    TOKENS_PER_WORD,
    Token,
    control_token,
    data_token,
    tokens_to_word,
    word_to_tokens,
)
from repro.xs1.chanend import Chanend
from repro.xs1.errors import TrapError
from repro.xs1.isa import (
    RES_TYPE_CHANEND,
    RES_TYPE_LOCK,
    RES_TYPE_TIMER,
    EnergyClass,
    Instruction,
    Operand,
)
from repro.xs1.registers import NUM_REGISTERS, REGISTER_INDEX, s32, u32
from repro.xs1.resources import TimerResource

if TYPE_CHECKING:
    from repro.xs1.core import XCore
    from repro.xs1.thread import IsaThread


class StepOutcome(Enum):
    """Result of giving a thread one issue slot.

    Defined here, next to the handlers that return it;
    :mod:`repro.xs1.thread` re-exports it.
    """

    ISSUED = "issued"      # an instruction issued; pc already updated
    PAUSED = "paused"      # the instruction blocked; it will re-issue on wake
    HALTED = "halted"      # the thread has finished


_ISSUED = StepOutcome.ISSUED
#: A register holds 32 bits; handlers wrap what they store.
_MASK = 0xFFFF_FFFF
_LR = REGISTER_INDEX["lr"]

_Handler = Callable[["XCore", "IsaThread", tuple[int, ...]], StepOutcome]
_HANDLERS: dict[str, _Handler] = {}

#: Where a quiet instruction at ``pc`` with ``args`` may go next; an
#: empty tuple means only issuing it tells (a computed branch).
_Flow = Callable[[int, tuple[int, ...]], tuple[int, ...]]
#: The one register a quiet instruction with ``args`` writes, or None.
_Writes = Callable[[tuple[int, ...]], int | None]
#: The quiet mnemonics, each with its flow and the register it writes.
_QUIET: dict[str, tuple[_Flow, _Writes]] = {}

#: One decoded instruction: what :meth:`IsaThread.step` issues.
IssueRow = tuple[_Handler, tuple[int, ...], EnergyClass]


def _next(pc: int, args: tuple[int, ...]) -> tuple[int, ...]:
    return (pc + 1,)


def _to_label(pc: int, args: tuple[int, ...]) -> tuple[int, ...]:
    return (args[-1],)


def _either(pc: int, args: tuple[int, ...]) -> tuple[int, ...]:
    return (pc + 1, args[-1])


def _computed(pc: int, args: tuple[int, ...]) -> tuple[int, ...]:
    return ()


def _first(args: tuple[int, ...]) -> int:
    return args[0]


def _link(args: tuple[int, ...]) -> int:
    return _LR


def _nothing(args: tuple[int, ...]) -> None:
    return None


def _handler(mnemonic: str, quiet: _Flow | None = None,
             writes: _Writes = _nothing) -> Callable[[_Handler], _Handler]:
    def register(func: _Handler) -> _Handler:
        _HANDLERS[mnemonic] = func
        if quiet is not None:
            _QUIET[mnemonic] = (quiet, writes)
        return func

    return register


def _register_outside_file(instruction: Instruction) -> int | None:
    """The first register operand of ``instruction`` that names no
    register (only an instruction built by hand can have one)."""
    for kind, value in zip(instruction.spec.operands, instruction.args):
        if kind is Operand.REG and not 0 <= value < NUM_REGISTERS:
            return value
    return None


def decode(instruction: Instruction) -> IssueRow:
    """The ``(handler, args, energy_class)`` row ``instruction`` issues as.

    A mnemonic without a handler, or an instruction with a register
    operand outside the file, decodes to a row that traps when (and only
    when) it issues; so handlers index the register file directly.
    """
    mnemonic = instruction.mnemonic
    handler = _HANDLERS.get(mnemonic)
    index = _register_outside_file(instruction)
    if handler is None:

        def handler(core, thread, args):
            raise TrapError(f"{thread.name}: unimplemented mnemonic {mnemonic!r}")

    elif index is not None:

        def handler(core, thread, args):
            raise TrapError(f"{thread.name}: invalid register index {index}")

    return handler, instruction.args, instruction.energy_class


#: The bound of a pc whose quiet paths never end (a quiet loop with no
#: way out), and of a counted loop whose counter wraps through 2**32
#: turns, so that a silent run over it still ends.
QUIET_CAP = 1 << 16


def quiet_bound(instructions: list[Instruction]) -> list[int]:
    """Per pc, the quiet instructions that issue on every path from it.

    The count stops before the first instruction that may pause, halt,
    trap, read the clock or touch SRAM or a resource: one not
    registered ``quiet`` (an unimplemented mnemonic included), or one
    whose register operand lies outside the file.  A path that leaves
    the program ends there; a computed branch (``bru``, ``ret``) ends
    it after itself.  The counts are the shortest distances to such an
    end, at most :data:`QUIET_CAP`.
    """
    size = len(instructions)
    flows: list[tuple[int, ...] | None] = []
    for pc, instruction in enumerate(instructions):
        quiet = _QUIET.get(instruction.mnemonic)
        if quiet is None or _register_outside_file(instruction) is not None:
            flows.append(None)
        else:
            flows.append(quiet[0](pc, instruction.args))
    bound = [0 if targets is None else QUIET_CAP for targets in flows]
    changed = True
    while changed:
        changed = False
        for pc, targets in enumerate(flows):
            if targets is None:
                continue
            after = min((bound[target] if 0 <= target < size else 0
                         for target in targets), default=0)
            if after + 1 < bound[pc]:
                bound[pc] = after + 1
                changed = True
    return bound


class CountedLoop(NamedTuple):
    """A pc inside a counted loop: what tells the issues left from it."""

    #: The register the loop's ``bt`` tests.
    counter: int
    #: The ``k`` its ``subi counter, counter, k`` takes off each turn.
    step: int
    #: The ``subi`` is still to issue before the ``bt`` (the pc is at or
    #: before it).
    before: bool
    #: Issues from the pc through the ``bt``, plus the quiet bound after
    #: the loop.
    rest: int
    #: Issues per turn of the loop.
    turn: int


def loop_table(instructions: list[Instruction],
               bound: list[int]) -> list[CountedLoop | None]:
    """Per pc, the counted loop it lies in, or None.

    A ``bt rX, head`` at pc ``back``, ``head <= back``, closes a counted
    loop when every instruction from ``head`` to ``back - 1`` is quiet
    with straight-line flow, has its register operands in the file,
    and exactly one of them writes ``rX``: a ``subi rX, rX, k`` with
    ``k >= 1``.  Then the value of ``rX`` alone tells how many turns are
    left (:meth:`repro.xs1.thread.IsaThread.silent_budget`).  ``bound``
    is the program's :func:`quiet_bound`, which gives the issues that
    follow the loop.
    """
    size = len(instructions)
    table: list[CountedLoop | None] = [None] * size
    for back, closing in enumerate(instructions):
        if closing.mnemonic != "bt" or _register_outside_file(closing) is not None:
            continue
        counter, head = closing.args
        if not 0 <= head <= back:
            continue
        dec = step = None
        for pc in range(head, back):
            body = instructions[pc]
            quiet = _QUIET.get(body.mnemonic)
            if (quiet is None or quiet[0] is not _next
                    or _register_outside_file(body) is not None):
                break
            if quiet[1](body.args) != counter:
                continue
            if (dec is not None or body.mnemonic != "subi"
                    or body.args[1] != counter or body.args[2] < 1):
                break
            dec, step = pc, body.args[2]
        else:
            if dec is None:
                continue
            after = bound[back + 1] if back + 1 < size else 0
            for pc in range(head, back + 1):
                table[pc] = CountedLoop(counter, step, pc <= dec,
                                        back - pc + 1 + after, back - head + 1)
    return table


def _advance(thread: "IsaThread") -> StepOutcome:
    thread.ip += 1
    return _ISSUED


# ---------------------------------------------------------------------------
# ALU
# ---------------------------------------------------------------------------

def _binop(mnemonic: str, operation: Callable[[int, int], int]) -> None:
    @_handler(mnemonic, quiet=_next, writes=_first)
    def run(core: "XCore", thread: "IsaThread", args: tuple[int, ...]) -> StepOutcome:
        rd, ra, rb = args
        regs = thread.registers.values
        regs[rd] = operation(regs[ra], regs[rb]) & _MASK
        thread.ip += 1
        return _ISSUED


def _binop_imm(mnemonic: str, operation: Callable[[int, int], int]) -> None:
    @_handler(mnemonic, quiet=_next, writes=_first)
    def run(core: "XCore", thread: "IsaThread", args: tuple[int, ...]) -> StepOutcome:
        rd, ra, imm = args
        regs = thread.registers.values
        regs[rd] = operation(regs[ra], imm) & _MASK
        thread.ip += 1
        return _ISSUED


_binop("add", operator.add)
_binop("sub", operator.sub)
_binop("mul", operator.mul)
_binop("and", operator.and_)
_binop("or", operator.or_)
_binop("xor", operator.xor)
_binop("shl", lambda a, b: a << (b & 31))
_binop("shr", lambda a, b: a >> (b & 31))
_binop("ashr", lambda a, b: s32(a) >> (b & 31))
_binop("eq", lambda a, b: int(a == b))
_binop("lss", lambda a, b: int(s32(a) < s32(b)))
_binop("lsu", lambda a, b: int(a < b))
_binop_imm("addi", operator.add)
_binop_imm("subi", operator.sub)
_binop_imm("shli", lambda a, imm: a << (imm & 31))
_binop_imm("shri", lambda a, imm: a >> (imm & 31))
_binop_imm("eqi", lambda a, imm: int(a == u32(imm)))


@_handler("divu")
def _divu(core, thread, args):
    rd, ra, rb = args
    regs = thread.registers.values
    divisor = regs[rb]
    if divisor == 0:
        raise TrapError(f"{thread.name}: division by zero")
    regs[rd] = regs[ra] // divisor
    return _advance(thread)


@_handler("remu")
def _remu(core, thread, args):
    rd, ra, rb = args
    regs = thread.registers.values
    divisor = regs[rb]
    if divisor == 0:
        raise TrapError(f"{thread.name}: remainder by zero")
    regs[rd] = regs[ra] % divisor
    return _advance(thread)


@_handler("ldc", quiet=_next, writes=_first)
def _ldc(core, thread, args):
    rd, imm = args
    thread.registers.values[rd] = imm & _MASK
    return _advance(thread)


@_handler("mov", quiet=_next, writes=_first)
def _mov(core, thread, args):
    rd, rs = args
    regs = thread.registers.values
    regs[rd] = regs[rs]
    return _advance(thread)


@_handler("mkmsk", quiet=_next, writes=_first)
def _mkmsk(core, thread, args):
    rd, imm = args
    thread.registers.values[rd] = (1 << (imm & 31)) - 1 if imm < 32 else _MASK
    return _advance(thread)


@_handler("neg", quiet=_next, writes=_first)
def _neg(core, thread, args):
    rd, rs = args
    regs = thread.registers.values
    regs[rd] = -regs[rs] & _MASK
    return _advance(thread)


@_handler("not", quiet=_next, writes=_first)
def _not(core, thread, args):
    rd, rs = args
    regs = thread.registers.values
    regs[rd] = ~regs[rs] & _MASK
    return _advance(thread)


@_handler("sext")
def _sext(core, thread, args):
    rd, bits = args
    if not 1 <= bits <= 32:
        raise TrapError(f"{thread.name}: sext width {bits} outside 1..32")
    regs = thread.registers.values
    value = regs[rd] & ((1 << bits) - 1)
    if value & (1 << (bits - 1)):
        value |= ~((1 << bits) - 1)
    regs[rd] = value & _MASK
    return _advance(thread)


@_handler("zext")
def _zext(core, thread, args):
    rd, bits = args
    if not 1 <= bits <= 32:
        raise TrapError(f"{thread.name}: zext width {bits} outside 1..32")
    thread.registers.values[rd] &= (1 << bits) - 1
    return _advance(thread)


@_handler("andnot", quiet=_next, writes=_first)
def _andnot(core, thread, args):
    rd, rs = args
    regs = thread.registers.values
    regs[rd] &= ~regs[rs]
    return _advance(thread)


@_handler("clz", quiet=_next, writes=_first)
def _clz(core, thread, args):
    rd, rs = args
    regs = thread.registers.values
    regs[rd] = 32 - regs[rs].bit_length()
    return _advance(thread)


@_handler("byterev", quiet=_next, writes=_first)
def _byterev(core, thread, args):
    rd, rs = args
    regs = thread.registers.values
    regs[rd] = int.from_bytes(regs[rs].to_bytes(4, "little"), "big")
    return _advance(thread)


@_handler("bitrev", quiet=_next, writes=_first)
def _bitrev(core, thread, args):
    rd, rs = args
    regs = thread.registers.values
    value = regs[rs]
    reversed_bits = 0
    for _ in range(32):
        reversed_bits = (reversed_bits << 1) | (value & 1)
        value >>= 1
    regs[rd] = reversed_bits
    return _advance(thread)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

@_handler("ldw")
def _ldw(core, thread, args):
    rd, ra, imm = args
    regs = thread.registers.values
    regs[rd] = core.memory.load_word(u32(regs[ra] + imm * 4))
    return _advance(thread)


@_handler("stw")
def _stw(core, thread, args):
    rs, ra, imm = args
    regs = thread.registers.values
    core.memory.store_word(u32(regs[ra] + imm * 4), regs[rs])
    return _advance(thread)


@_handler("ldb")
def _ldb(core, thread, args):
    rd, ra, imm = args
    regs = thread.registers.values
    regs[rd] = core.memory.load_byte(u32(regs[ra] + imm))
    return _advance(thread)


@_handler("stb")
def _stb(core, thread, args):
    rs, ra, imm = args
    regs = thread.registers.values
    core.memory.store_byte(u32(regs[ra] + imm), regs[rs])
    return _advance(thread)


@_handler("ldaw", quiet=_next, writes=_first)
def _ldaw(core, thread, args):
    rd, ra, imm = args
    regs = thread.registers.values
    regs[rd] = (regs[ra] + imm * 4) & _MASK
    return _advance(thread)


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------

@_handler("bu", quiet=_to_label)
def _bu(core, thread, args):
    thread.ip = args[0]
    return _ISSUED


@_handler("bt", quiet=_either)
def _bt(core, thread, args):
    rs, target = args
    if thread.registers.values[rs] != 0:
        thread.ip = target
    else:
        thread.ip += 1
    return _ISSUED


@_handler("bf", quiet=_either)
def _bf(core, thread, args):
    rs, target = args
    if thread.registers.values[rs] == 0:
        thread.ip = target
    else:
        thread.ip += 1
    return _ISSUED


@_handler("bl", quiet=_to_label, writes=_link)
def _bl(core, thread, args):
    thread.registers.values[_LR] = (thread.ip + 1) & _MASK
    thread.ip = args[0]
    return StepOutcome.ISSUED


@_handler("bru", quiet=_computed)
def _bru(core, thread, args):
    thread.ip = thread.registers.values[args[0]]
    return StepOutcome.ISSUED


@_handler("ret", quiet=_computed)
def _ret(core, thread, args):
    thread.ip = thread.registers.values[_LR]
    return StepOutcome.ISSUED


# ---------------------------------------------------------------------------
# Resources & communication
# ---------------------------------------------------------------------------

def _local_chanend(core: "XCore", resource_id: int, thread: "IsaThread") -> Chanend:
    if resource_id & 0xFF != CHANEND_TYPE:
        raise TrapError(
            f"{thread.name}: resource {resource_id:#010x} is not a channel end"
        )
    address = ChanendAddress.decode(resource_id)
    if address.node != core.node_id:
        raise TrapError(
            f"{thread.name}: chanend {address} is not on node {core.node_id}"
        )
    chanend = core._chanend_at(address.index)
    if not chanend.allocated:
        raise TrapError(f"{thread.name}: chanend {address} not allocated")
    return chanend


@_handler("getr")
def _getr(core, thread, args):
    rd, res_type = args
    thread.registers.values[rd] = core.allocate_resource(res_type) & _MASK
    return _advance(thread)


@_handler("freer")
def _freer(core, thread, args):
    core.free_resource(thread.registers.values[args[0]])
    return _advance(thread)


@_handler("setd")
def _setd(core, thread, args):
    rs, rd = args
    chanend = _local_chanend(core, thread.registers.values[rs], thread)
    chanend.set_dest(ChanendAddress.decode(thread.registers.values[rd]))
    return _advance(thread)


@_handler("out")
def _out(core, thread, args):
    rs, rd = args
    resource_id = thread.registers.values[rs]
    if resource_id & 0xFF == RES_TYPE_LOCK:
        core.lock_for(resource_id, thread).release(thread)
        return _advance(thread)
    chanend = _local_chanend(core, resource_id, thread)
    tokens = word_to_tokens(thread.registers.values[rd])
    if chanend.tx_space() < len(tokens):
        chanend.wait_tx_space(thread, len(tokens))
        return StepOutcome.PAUSED
    chanend.push_tx(tokens)
    return _advance(thread)


@_handler("outt")
def _outt(core, thread, args):
    rs, rd = args
    chanend = _local_chanend(core, thread.registers.values[rs], thread)
    if chanend.tx_space() < 1:
        chanend.wait_tx_space(thread, 1)
        return StepOutcome.PAUSED
    chanend.push_tx([data_token(thread.registers.values[rd])])
    return _advance(thread)


@_handler("outct")
def _outct(core, thread, args):
    rs, code = args
    chanend = _local_chanend(core, thread.registers.values[rs], thread)
    if chanend.tx_space() < 1:
        chanend.wait_tx_space(thread, 1)
        return StepOutcome.PAUSED
    chanend.push_tx([control_token(code)])
    return _advance(thread)


def _in_chanend_word(chanend: Chanend, thread: "IsaThread", rd: int) -> StepOutcome:
    if chanend.rx_available() < TOKENS_PER_WORD:
        chanend.wait_rx(thread, TOKENS_PER_WORD)
        return StepOutcome.PAUSED
    tokens: list[Token] = []
    for position in range(TOKENS_PER_WORD):
        head = chanend.rx[position]
        if head.is_control:
            raise TrapError(
                f"{thread.name}: control token {head} while receiving word data"
            )
        tokens.append(head)
    for _ in range(TOKENS_PER_WORD):
        chanend.pop_rx()
    thread.registers.values[rd] = tokens_to_word(tokens)
    thread.ip += 1
    return StepOutcome.ISSUED


@_handler("in")
def _in(core, thread, args):
    rd, rs = args
    resource_id = thread.registers.values[rs]
    res_type = resource_id & 0xFF
    if res_type == RES_TYPE_CHANEND:
        return _in_chanend_word(_local_chanend(core, resource_id, thread), thread, rd)
    if res_type == RES_TYPE_TIMER:
        core.check_timer(resource_id, thread)
        thread.registers.values[rd] = TimerResource.read(core.sim.now)
        return _advance(thread)
    if res_type == RES_TYPE_LOCK:
        lock = core.lock_for(resource_id, thread)
        if lock.try_acquire(thread):
            return _advance(thread)
        thread.pause(f"lock {lock.index}")
        return StepOutcome.PAUSED
    raise TrapError(f"{thread.name}: in from unsupported resource type {res_type}")


@_handler("intt")
def _intt(core, thread, args):
    rd, rs = args
    chanend = _local_chanend(core, thread.registers.values[rs], thread)
    if chanend.rx_available() < 1:
        chanend.wait_rx(thread, 1)
        return StepOutcome.PAUSED
    head = chanend.rx[0]
    if head.is_control:
        raise TrapError(f"{thread.name}: control token {head} on intt")
    chanend.pop_rx()
    thread.registers.values[rd] = head.value
    return _advance(thread)


@_handler("chkct")
def _chkct(core, thread, args):
    rs, code = args
    chanend = _local_chanend(core, thread.registers.values[rs], thread)
    if chanend.rx_available() < 1:
        chanend.wait_rx(thread, 1)
        return StepOutcome.PAUSED
    head = chanend.rx[0]
    if not head.is_control or head.value != code:
        raise TrapError(
            f"{thread.name}: chkct expected control token {code:#x}, found {head}"
        )
    chanend.pop_rx()
    return _advance(thread)


# ---------------------------------------------------------------------------
# Timing / misc
# ---------------------------------------------------------------------------

@_handler("gettime")
def _gettime(core, thread, args):
    thread.registers.values[args[0]] = core.cycle & _MASK
    return _advance(thread)


@_handler("nop", quiet=_next)
def _nop(core, thread, args):
    return _advance(thread)


@_handler("freet")
def _freet(core, thread, args):
    thread.halt()
    return StepOutcome.HALTED


# ---------------------------------------------------------------------------
# Events (XS1 event-driven I/O)
# ---------------------------------------------------------------------------

def _event_resource(core: "XCore", resource_id: int, thread: "IsaThread"):
    """The event-capable resource behind ``resource_id`` (chanend/timer)."""
    res_type = resource_id & 0xFF
    if res_type == RES_TYPE_CHANEND:
        return _local_chanend(core, resource_id, thread)
    if res_type == RES_TYPE_TIMER:
        return core.check_timer(resource_id, thread)
    raise TrapError(
        f"{thread.name}: resource type {res_type} does not support events"
    )


@_handler("setv")
def _setv(core, thread, args):
    rs, vector = args
    resource = _event_resource(core, thread.registers.values[rs], thread)
    resource.event_vector = vector
    return _advance(thread)


@_handler("eeu")
def _eeu(core, thread, args):
    resource = _event_resource(core, thread.registers.values[args[0]], thread)
    resource.event_enabled = True
    resource.event_thread = thread
    if resource not in thread.event_resources:
        thread.event_resources.append(resource)
    return _advance(thread)


@_handler("edu")
def _edu(core, thread, args):
    resource = _event_resource(core, thread.registers.values[args[0]], thread)
    resource.event_enabled = False
    if resource in thread.event_resources:
        thread.event_resources.remove(resource)
    return _advance(thread)


@_handler("clre")
def _clre(core, thread, args):
    for resource in thread.event_resources:
        resource.event_enabled = False
        resource.event_thread = None
    thread.event_resources.clear()
    return _advance(thread)


@_handler("tsetafter")
def _tsetafter(core, thread, args):
    rs, rd = args
    timer = core.check_timer(thread.registers.values[rs], thread)
    timer.after_ticks = thread.registers.values[rd]
    return _advance(thread)


def _ready_event(core: "XCore", thread: "IsaThread"):
    """The first enabled, ready event resource, if any."""
    for resource in thread.event_resources:
        if not resource.event_enabled:
            continue
        if isinstance(resource, Chanend) and resource.event_ready:
            return resource
        if isinstance(resource, TimerResource) and resource.event_ready(core.sim.now):
            return resource
    return None


@_handler("waiteu")
def _waiteu(core, thread, args):
    if not thread.event_resources:
        # Bare waiteu with no events: park until externally resumed
        # (kept for host-driven tests and legacy uses).
        thread.ip += 1
        thread.pause("waiteu")
        return StepOutcome.PAUSED
    ready = _ready_event(core, thread)
    if ready is not None:
        if ready.event_vector is None:
            raise TrapError(f"{thread.name}: event fired with no vector set")
        thread.ip = ready.event_vector
        return StepOutcome.ISSUED
    thread.pause("waiteu")
    thread.waiting_for_event = True
    for resource in thread.event_resources:
        if isinstance(resource, TimerResource):
            resource.schedule_event_wake(core.sim)
    return StepOutcome.PAUSED
