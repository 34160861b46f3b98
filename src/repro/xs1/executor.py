"""Instruction execution semantics.

``execute`` carries out one instruction on behalf of a thread occupying an
issue slot.  Every instruction completes in that single slot (the XS1's
fixed completion time) except communication/lock instructions, which may
*pause* the thread; a paused instruction re-issues in full when the thread
is woken, so handlers must be written to retry idempotently.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable

from repro.network.header import CHANEND_TYPE, ChanendAddress
from repro.network.token import Token, control_token, data_token, tokens_to_word, word_to_tokens
from repro.xs1.errors import ResourceError, TrapError
from repro.xs1.isa import (
    RES_TYPE_CHANEND,
    RES_TYPE_LOCK,
    RES_TYPE_TIMER,
    Instruction,
)
from repro.xs1.registers import s32, u32
from repro.xs1.resources import TimerResource

if TYPE_CHECKING:
    from repro.xs1.chanend import Chanend
    from repro.xs1.core import XCore
    from repro.xs1.thread import IsaThread


class StepOutcome(Enum):
    """Result of giving a thread one issue slot.

    Defined here rather than in :mod:`repro.xs1.thread` (which re-exports
    it) so the thread module can bind :func:`execute` at import time
    without an import cycle.
    """

    ISSUED = "issued"      # an instruction issued; pc already updated
    PAUSED = "paused"      # the instruction blocked; it will re-issue on wake
    HALTED = "halted"      # the thread has finished


_Handler = Callable[["XCore", "IsaThread", tuple[int, ...]], StepOutcome]
_HANDLERS: dict[str, _Handler] = {}


def _handler(mnemonic: str) -> Callable[[_Handler], _Handler]:
    def register(func: _Handler) -> _Handler:
        _HANDLERS[mnemonic] = func
        return func

    return register


def execute(core: "XCore", thread: "IsaThread", instruction: Instruction) -> StepOutcome:
    """Execute ``instruction`` for ``thread``; returns the slot outcome."""
    handler = _HANDLERS.get(instruction.mnemonic)
    if handler is None:
        raise TrapError(f"{thread.name}: unimplemented mnemonic {instruction.mnemonic!r}")
    outcome = handler(core, thread, instruction.args)
    if outcome is not StepOutcome.PAUSED:  # issued or halting both retire
        thread.instructions_executed += 1
        core.count_instruction(instruction.energy_class)
    return outcome


def _advance(thread: "IsaThread") -> StepOutcome:
    thread.pc += 1
    return StepOutcome.ISSUED


# ---------------------------------------------------------------------------
# ALU
# ---------------------------------------------------------------------------

def _binop(operation: Callable[[int, int], int]) -> _Handler:
    def run(core: "XCore", thread: "IsaThread", args: tuple[int, ...]) -> StepOutcome:
        rd, ra, rb = args
        thread.regs.write(rd, operation(thread.regs.read(ra), thread.regs.read(rb)))
        return _advance(thread)

    return run


def _binop_imm(operation: Callable[[int, int], int]) -> _Handler:
    def run(core: "XCore", thread: "IsaThread", args: tuple[int, ...]) -> StepOutcome:
        rd, ra, imm = args
        thread.regs.write(rd, operation(thread.regs.read(ra), imm))
        return _advance(thread)

    return run


_HANDLERS["add"] = _binop(lambda a, b: a + b)
_HANDLERS["sub"] = _binop(lambda a, b: a - b)
_HANDLERS["mul"] = _binop(lambda a, b: a * b)
_HANDLERS["and"] = _binop(lambda a, b: a & b)
_HANDLERS["or"] = _binop(lambda a, b: a | b)
_HANDLERS["xor"] = _binop(lambda a, b: a ^ b)
_HANDLERS["shl"] = _binop(lambda a, b: a << (b & 31))
_HANDLERS["shr"] = _binop(lambda a, b: a >> (b & 31))
_HANDLERS["ashr"] = _binop(lambda a, b: s32(a) >> (b & 31))
_HANDLERS["eq"] = _binop(lambda a, b: int(a == b))
_HANDLERS["lss"] = _binop(lambda a, b: int(s32(a) < s32(b)))
_HANDLERS["lsu"] = _binop(lambda a, b: int(a < b))
_HANDLERS["addi"] = _binop_imm(lambda a, imm: a + imm)
_HANDLERS["subi"] = _binop_imm(lambda a, imm: a - imm)
_HANDLERS["shli"] = _binop_imm(lambda a, imm: a << (imm & 31))
_HANDLERS["shri"] = _binop_imm(lambda a, imm: a >> (imm & 31))
_HANDLERS["eqi"] = _binop_imm(lambda a, imm: int(a == u32(imm)))


@_handler("divu")
def _divu(core, thread, args):
    rd, ra, rb = args
    divisor = thread.regs.read(rb)
    if divisor == 0:
        raise TrapError(f"{thread.name}: division by zero")
    thread.regs.write(rd, thread.regs.read(ra) // divisor)
    return _advance(thread)


@_handler("remu")
def _remu(core, thread, args):
    rd, ra, rb = args
    divisor = thread.regs.read(rb)
    if divisor == 0:
        raise TrapError(f"{thread.name}: remainder by zero")
    thread.regs.write(rd, thread.regs.read(ra) % divisor)
    return _advance(thread)


@_handler("ldc")
def _ldc(core, thread, args):
    rd, imm = args
    thread.regs.write(rd, imm)
    return _advance(thread)


@_handler("mov")
def _mov(core, thread, args):
    rd, rs = args
    thread.regs.write(rd, thread.regs.read(rs))
    return _advance(thread)


@_handler("mkmsk")
def _mkmsk(core, thread, args):
    rd, imm = args
    thread.regs.write(rd, (1 << (imm & 31)) - 1 if imm < 32 else 0xFFFF_FFFF)
    return _advance(thread)


@_handler("neg")
def _neg(core, thread, args):
    rd, rs = args
    thread.regs.write(rd, -thread.regs.read(rs))
    return _advance(thread)


@_handler("not")
def _not(core, thread, args):
    rd, rs = args
    thread.regs.write(rd, ~thread.regs.read(rs))
    return _advance(thread)


@_handler("sext")
def _sext(core, thread, args):
    rd, bits = args
    if not 1 <= bits <= 32:
        raise TrapError(f"{thread.name}: sext width {bits} outside 1..32")
    value = thread.regs.read(rd) & ((1 << bits) - 1)
    if value & (1 << (bits - 1)):
        value |= ~((1 << bits) - 1)
    thread.regs.write(rd, value)
    return _advance(thread)


@_handler("zext")
def _zext(core, thread, args):
    rd, bits = args
    if not 1 <= bits <= 32:
        raise TrapError(f"{thread.name}: zext width {bits} outside 1..32")
    thread.regs.write(rd, thread.regs.read(rd) & ((1 << bits) - 1))
    return _advance(thread)


@_handler("andnot")
def _andnot(core, thread, args):
    rd, rs = args
    thread.regs.write(rd, thread.regs.read(rd) & ~thread.regs.read(rs))
    return _advance(thread)


@_handler("clz")
def _clz(core, thread, args):
    rd, rs = args
    value = thread.regs.read(rs)
    thread.regs.write(rd, 32 - value.bit_length())
    return _advance(thread)


@_handler("byterev")
def _byterev(core, thread, args):
    rd, rs = args
    value = thread.regs.read(rs)
    thread.regs.write(rd, int.from_bytes(value.to_bytes(4, "little"), "big"))
    return _advance(thread)


@_handler("bitrev")
def _bitrev(core, thread, args):
    rd, rs = args
    value = thread.regs.read(rs)
    reversed_bits = 0
    for _ in range(32):
        reversed_bits = (reversed_bits << 1) | (value & 1)
        value >>= 1
    thread.regs.write(rd, reversed_bits)
    return _advance(thread)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

@_handler("ldw")
def _ldw(core, thread, args):
    rd, ra, imm = args
    thread.regs.write(rd, core.memory.load_word(u32(thread.regs.read(ra) + imm * 4)))
    return _advance(thread)


@_handler("stw")
def _stw(core, thread, args):
    rs, ra, imm = args
    core.memory.store_word(u32(thread.regs.read(ra) + imm * 4), thread.regs.read(rs))
    return _advance(thread)


@_handler("ldb")
def _ldb(core, thread, args):
    rd, ra, imm = args
    thread.regs.write(rd, core.memory.load_byte(u32(thread.regs.read(ra) + imm)))
    return _advance(thread)


@_handler("stb")
def _stb(core, thread, args):
    rs, ra, imm = args
    core.memory.store_byte(u32(thread.regs.read(ra) + imm), thread.regs.read(rs))
    return _advance(thread)


@_handler("ldaw")
def _ldaw(core, thread, args):
    rd, ra, imm = args
    thread.regs.write(rd, thread.regs.read(ra) + imm * 4)
    return _advance(thread)


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------

@_handler("bu")
def _bu(core, thread, args):
    thread.pc = args[0]
    return StepOutcome.ISSUED


@_handler("bt")
def _bt(core, thread, args):
    rs, target = args
    if thread.regs.read(rs) != 0:
        thread.pc = target
        return StepOutcome.ISSUED
    return _advance(thread)


@_handler("bf")
def _bf(core, thread, args):
    rs, target = args
    if thread.regs.read(rs) == 0:
        thread.pc = target
        return StepOutcome.ISSUED
    return _advance(thread)


@_handler("bl")
def _bl(core, thread, args):
    thread.regs.write_named("lr", thread.pc + 1)
    thread.pc = args[0]
    return StepOutcome.ISSUED


@_handler("bru")
def _bru(core, thread, args):
    thread.pc = thread.regs.read(args[0])
    return StepOutcome.ISSUED


@_handler("ret")
def _ret(core, thread, args):
    thread.pc = thread.regs.read_named("lr")
    return StepOutcome.ISSUED


# ---------------------------------------------------------------------------
# Resources & communication
# ---------------------------------------------------------------------------

def _local_chanend(core: "XCore", resource_id: int, thread: "IsaThread") -> "Chanend":
    if resource_id & 0xFF != CHANEND_TYPE:
        raise TrapError(
            f"{thread.name}: resource {resource_id:#010x} is not a channel end"
        )
    address = ChanendAddress.decode(resource_id)
    if address.node != core.node_id:
        raise TrapError(
            f"{thread.name}: chanend {address} is not on node {core.node_id}"
        )
    chanend = core.chanend(address.index)
    if not chanend.allocated:
        raise TrapError(f"{thread.name}: chanend {address} not allocated")
    return chanend


@_handler("getr")
def _getr(core, thread, args):
    rd, res_type = args
    thread.regs.write(rd, core.allocate_resource(res_type))
    return _advance(thread)


@_handler("freer")
def _freer(core, thread, args):
    core.free_resource(thread.regs.read(args[0]))
    return _advance(thread)


@_handler("setd")
def _setd(core, thread, args):
    rs, rd = args
    chanend = _local_chanend(core, thread.regs.read(rs), thread)
    chanend.set_dest(ChanendAddress.decode(thread.regs.read(rd)))
    return _advance(thread)


@_handler("out")
def _out(core, thread, args):
    rs, rd = args
    resource_id = thread.regs.read(rs)
    if resource_id & 0xFF == RES_TYPE_LOCK:
        core.lock_for(resource_id, thread).release(thread)
        return _advance(thread)
    chanend = _local_chanend(core, resource_id, thread)
    tokens = word_to_tokens(thread.regs.read(rd))
    if chanend.tx_space() < len(tokens):
        chanend.wait_tx_space(thread, len(tokens))
        return StepOutcome.PAUSED
    chanend.push_tx(tokens)
    return _advance(thread)


@_handler("outt")
def _outt(core, thread, args):
    rs, rd = args
    chanend = _local_chanend(core, thread.regs.read(rs), thread)
    if chanend.tx_space() < 1:
        chanend.wait_tx_space(thread, 1)
        return StepOutcome.PAUSED
    chanend.push_tx([data_token(thread.regs.read(rd))])
    return _advance(thread)


@_handler("outct")
def _outct(core, thread, args):
    rs, code = args
    chanend = _local_chanend(core, thread.regs.read(rs), thread)
    if chanend.tx_space() < 1:
        chanend.wait_tx_space(thread, 1)
        return StepOutcome.PAUSED
    chanend.push_tx([control_token(code)])
    return _advance(thread)


def _in_chanend_word(chanend: "Chanend", thread: "IsaThread", rd: int) -> StepOutcome:
    from repro.network.token import TOKENS_PER_WORD

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
    thread.regs.write(rd, tokens_to_word(tokens))
    thread.pc += 1
    return StepOutcome.ISSUED


@_handler("in")
def _in(core, thread, args):
    rd, rs = args
    resource_id = thread.regs.read(rs)
    res_type = resource_id & 0xFF
    if res_type == RES_TYPE_CHANEND:
        return _in_chanend_word(_local_chanend(core, resource_id, thread), thread, rd)
    if res_type == RES_TYPE_TIMER:
        core.check_timer(resource_id, thread)
        thread.regs.write(rd, TimerResource.read(core.sim.now))
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
    chanend = _local_chanend(core, thread.regs.read(rs), thread)
    if chanend.rx_available() < 1:
        chanend.wait_rx(thread, 1)
        return StepOutcome.PAUSED
    head = chanend.rx[0]
    if head.is_control:
        raise TrapError(f"{thread.name}: control token {head} on intt")
    chanend.pop_rx()
    thread.regs.write(rd, head.value)
    return _advance(thread)


@_handler("chkct")
def _chkct(core, thread, args):
    rs, code = args
    chanend = _local_chanend(core, thread.regs.read(rs), thread)
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
    thread.regs.write(args[0], core.cycle & 0xFFFF_FFFF)
    return _advance(thread)


@_handler("nop")
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
    resource = _event_resource(core, thread.regs.read(rs), thread)
    resource.event_vector = vector
    return _advance(thread)


@_handler("eeu")
def _eeu(core, thread, args):
    resource = _event_resource(core, thread.regs.read(args[0]), thread)
    resource.event_enabled = True
    resource.event_thread = thread
    if resource not in thread.event_resources:
        thread.event_resources.append(resource)
    return _advance(thread)


@_handler("edu")
def _edu(core, thread, args):
    resource = _event_resource(core, thread.regs.read(args[0]), thread)
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
    timer = core.check_timer(thread.regs.read(rs), thread)
    timer.after_ticks = thread.regs.read(rd)
    return _advance(thread)


def _ready_event(core: "XCore", thread: "IsaThread"):
    """The first enabled, ready event resource, if any."""
    from repro.xs1.chanend import Chanend
    from repro.xs1.resources import TimerResource

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
        thread.pc += 1
        thread.pause("waiteu")
        return StepOutcome.PAUSED
    ready = _ready_event(core, thread)
    if ready is not None:
        if ready.event_vector is None:
            raise TrapError(f"{thread.name}: event fired with no vector set")
        thread.pc = ready.event_vector
        return StepOutcome.ISSUED
    thread.pause("waiteu")
    thread.waiting_for_event = True
    from repro.xs1.resources import TimerResource

    for resource in thread.event_resources:
        if isinstance(resource, TimerResource):
            resource.schedule_event_wake(core.sim)
    return StepOutcome.PAUSED
