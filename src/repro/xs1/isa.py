"""Instruction-set definition for the XS1-style core model.

This is a faithful *subset* of the XS1 ISA: three-operand register
arithmetic, single-cycle loads/stores, branches, and the ISA-level
networking primitives (``getr``/``setd``/``out``/``in``/``outt``/``intt``/
``outct``/``chkct``) that the Swallow paper highlights as a key
characteristic of the architecture.

Instructions are kept as structured objects rather than encoded binaries;
the program counter is an instruction index.  Every instruction issues in
exactly one pipeline slot (fixed completion time — the property Eq. 2 of
the paper relies on); communication instructions may *pause* the issuing
thread, during which it occupies no slots.

Each mnemonic carries an energy class used by the instruction-level energy
model (:mod:`repro.energy.instruction_energy`), following the per-class
profiling approach of Kerrison & Eder (paper ref. [4]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.xs1.errors import AssemblerError


class Operand(Enum):
    """Operand kinds accepted by the assembler."""

    REG = "reg"        # register name, e.g. r3 / sp / lr
    IMM = "imm"        # integer immediate (decimal, hex, or char)
    LABEL = "label"    # code label, resolved to an instruction index


class EnergyClass(Enum):
    """Instruction energy classes for the Kerrison-style energy model."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    MEM_LOAD = "mem_load"
    MEM_STORE = "mem_store"
    BRANCH = "branch"
    COMM = "comm"
    RESOURCE = "resource"
    NOP = "nop"

    #: Members are singletons compared by identity, so hashing by
    #: identity agrees with equality.  It runs in C; ``Enum``'s default
    #: name hash runs in Python on every count of a retired instruction.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class InstructionSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    operands: tuple[Operand, ...]
    energy_class: EnergyClass
    description: str


def _spec(mnemonic: str, operands: tuple[Operand, ...], energy: EnergyClass,
          description: str) -> InstructionSpec:
    return InstructionSpec(mnemonic, operands, energy, description)


_R = Operand.REG
_I = Operand.IMM
_L = Operand.LABEL

#: The instruction registry: mnemonic -> spec.
INSTRUCTION_SET: dict[str, InstructionSpec] = {
    spec.mnemonic: spec
    for spec in [
        # -- data movement / constants ---------------------------------
        _spec("ldc", (_R, _I), EnergyClass.ALU, "rd = imm"),
        _spec("mov", (_R, _R), EnergyClass.ALU, "rd = rs"),
        _spec("mkmsk", (_R, _I), EnergyClass.ALU, "rd = (1 << imm) - 1"),
        # -- arithmetic / logic -----------------------------------------
        _spec("add", (_R, _R, _R), EnergyClass.ALU, "rd = ra + rb"),
        _spec("sub", (_R, _R, _R), EnergyClass.ALU, "rd = ra - rb"),
        _spec("mul", (_R, _R, _R), EnergyClass.MUL, "rd = ra * rb (low 32)"),
        _spec("divu", (_R, _R, _R), EnergyClass.DIV, "rd = ra / rb (unsigned; traps on 0)"),
        _spec("remu", (_R, _R, _R), EnergyClass.DIV, "rd = ra % rb (unsigned; traps on 0)"),
        _spec("and", (_R, _R, _R), EnergyClass.ALU, "rd = ra & rb"),
        _spec("or", (_R, _R, _R), EnergyClass.ALU, "rd = ra | rb"),
        _spec("xor", (_R, _R, _R), EnergyClass.ALU, "rd = ra ^ rb"),
        _spec("shl", (_R, _R, _R), EnergyClass.ALU, "rd = ra << (rb & 31)"),
        _spec("shr", (_R, _R, _R), EnergyClass.ALU, "rd = ra >> (rb & 31) logical"),
        _spec("ashr", (_R, _R, _R), EnergyClass.ALU, "rd = ra >> (rb & 31) arithmetic"),
        _spec("addi", (_R, _R, _I), EnergyClass.ALU, "rd = ra + imm"),
        _spec("subi", (_R, _R, _I), EnergyClass.ALU, "rd = ra - imm"),
        _spec("shli", (_R, _R, _I), EnergyClass.ALU, "rd = ra << imm"),
        _spec("shri", (_R, _R, _I), EnergyClass.ALU, "rd = ra >> imm logical"),
        _spec("neg", (_R, _R), EnergyClass.ALU, "rd = -rs"),
        _spec("not", (_R, _R), EnergyClass.ALU, "rd = ~rs"),
        _spec("sext", (_R, _I), EnergyClass.ALU, "sign-extend rd from bit imm"),
        _spec("zext", (_R, _I), EnergyClass.ALU, "zero-extend rd from bit imm"),
        _spec("andnot", (_R, _R), EnergyClass.ALU, "rd = rd & ~rs"),
        _spec("clz", (_R, _R), EnergyClass.ALU, "rd = count leading zeros of rs"),
        _spec("byterev", (_R, _R), EnergyClass.ALU, "rd = byte-reversed rs"),
        _spec("bitrev", (_R, _R), EnergyClass.ALU, "rd = bit-reversed rs"),
        # -- comparisons --------------------------------------------------
        _spec("eq", (_R, _R, _R), EnergyClass.ALU, "rd = (ra == rb)"),
        _spec("eqi", (_R, _R, _I), EnergyClass.ALU, "rd = (ra == imm)"),
        _spec("lss", (_R, _R, _R), EnergyClass.ALU, "rd = (ra < rb) signed"),
        _spec("lsu", (_R, _R, _R), EnergyClass.ALU, "rd = (ra < rb) unsigned"),
        # -- memory (single-cycle SRAM) -----------------------------------
        _spec("ldw", (_R, _R, _I), EnergyClass.MEM_LOAD, "rd = mem[ra + imm*4]"),
        _spec("stw", (_R, _R, _I), EnergyClass.MEM_STORE, "mem[ra + imm*4] = rs"),
        _spec("ldb", (_R, _R, _I), EnergyClass.MEM_LOAD, "rd = mem8[ra + imm]"),
        _spec("stb", (_R, _R, _I), EnergyClass.MEM_STORE, "mem8[ra + imm] = rs"),
        _spec("ldaw", (_R, _R, _I), EnergyClass.ALU, "rd = ra + imm*4 (address of word)"),
        # -- control flow --------------------------------------------------
        _spec("bu", (_L,), EnergyClass.BRANCH, "pc = label"),
        _spec("bt", (_R, _L), EnergyClass.BRANCH, "if rs != 0: pc = label"),
        _spec("bf", (_R, _L), EnergyClass.BRANCH, "if rs == 0: pc = label"),
        _spec("bl", (_L,), EnergyClass.BRANCH, "lr = pc + 1; pc = label"),
        _spec("bru", (_R,), EnergyClass.BRANCH, "pc = rs (computed branch)"),
        _spec("ret", (), EnergyClass.BRANCH, "pc = lr"),
        # -- resources & networking (ISA-level primitives, paper SIV-A) ----
        _spec("getr", (_R, _I), EnergyClass.RESOURCE, "rd = id of fresh resource of type imm"),
        _spec("freer", (_R,), EnergyClass.RESOURCE, "release resource rs"),
        _spec("setd", (_R, _R), EnergyClass.RESOURCE, "set destination of chanend rs to rd"),
        _spec("out", (_R, _R), EnergyClass.COMM, "output 32-bit word rd via chanend rs"),
        _spec("in", (_R, _R), EnergyClass.COMM, "input 32-bit word into rd via chanend rs"),
        _spec("outt", (_R, _R), EnergyClass.COMM, "output one data token (rd & 0xff)"),
        _spec("intt", (_R, _R), EnergyClass.COMM, "input one data token into rd"),
        _spec("outct", (_R, _I), EnergyClass.COMM, "output control token imm"),
        _spec("chkct", (_R, _I), EnergyClass.COMM, "consume expected control token imm"),
        # -- events (XS1 event-driven I/O) -----------------------------------
        _spec("setv", (_R, _L), EnergyClass.RESOURCE, "set event vector of resource rs"),
        _spec("eeu", (_R,), EnergyClass.RESOURCE, "enable events on resource rs"),
        _spec("edu", (_R,), EnergyClass.RESOURCE, "disable events on resource rs"),
        _spec("clre", (), EnergyClass.RESOURCE, "disable all of the thread's events"),
        _spec("tsetafter", (_R, _R), EnergyClass.RESOURCE,
              "arm timer rs to fire once the reference clock reaches rd"),
        _spec("waiteu", (), EnergyClass.NOP,
              "wait for an enabled event; dispatch to its vector"),
        # -- timing ---------------------------------------------------------
        _spec("gettime", (_R,), EnergyClass.RESOURCE, "rd = core cycle counter (low 32)"),
        # -- threads / misc --------------------------------------------------
        _spec("freet", (), EnergyClass.NOP, "halt the executing thread"),
        _spec("nop", (), EnergyClass.NOP, "no operation"),
    ]
}


#: Resource type codes used by ``getr`` (matching XS1 conventions).
RES_TYPE_PORT = 0
RES_TYPE_TIMER = 1
RES_TYPE_CHANEND = 2
RES_TYPE_LOCK = 3

#: Control-token codes (XS1 conventions).  END closes a network route.
CT_END = 0x01
CT_PAUSE = 0x02
CT_ACK = 0x03
CT_NACK = 0x04


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction: a spec plus resolved operand values.

    Register operands hold register-file indices; label operands hold the
    resolved target instruction index; immediates hold their value.
    """

    spec: InstructionSpec
    args: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.args) != len(self.spec.operands):
            raise AssemblerError(
                f"{self.spec.mnemonic} expects {len(self.spec.operands)} operands, "
                f"got {len(self.args)}"
            )

    @property
    def mnemonic(self) -> str:
        """The instruction mnemonic."""
        return self.spec.mnemonic

    @property
    def energy_class(self) -> EnergyClass:
        """Energy class for the instruction energy model."""
        return self.spec.energy_class

    def __str__(self) -> str:
        parts = []
        for kind, value in zip(self.spec.operands, self.args):
            if kind is Operand.REG:
                from repro.xs1.registers import REGISTER_NAME

                parts.append(REGISTER_NAME.get(value, f"r?{value}"))
            else:
                parts.append(str(value))
        return f"{self.mnemonic} {', '.join(parts)}".strip()
