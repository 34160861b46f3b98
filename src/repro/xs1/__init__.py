"""XS1-L processor model: ISA, assembler, threads, channel ends, core."""

from repro.xs1.assembler import Assembler, Program, assemble
from repro.xs1.behavioral import (
    BehavioralThread,
    CheckCt,
    Compute,
    RecvPacket,
    RecvToken,
    RecvWord,
    SendCt,
    SendToken,
    SendWord,
    SetDest,
    Sleep,
)
from repro.xs1.chanend import CHANEND_BUFFER_TOKENS, Chanend
from repro.xs1.core import CoreConfig, CoreStats, XCore
from repro.xs1.errors import (
    AssemblerError,
    ExhaustedError,
    MemoryAccessError,
    ResourceError,
    TrapError,
    XS1Error,
)
from repro.xs1.fabric import Fabric, LoopbackFabric
from repro.xs1.isa import (
    CT_ACK,
    CT_END,
    CT_NACK,
    CT_PAUSE,
    INSTRUCTION_SET,
    RES_TYPE_CHANEND,
    RES_TYPE_LOCK,
    RES_TYPE_TIMER,
    EnergyClass,
    Instruction,
    InstructionSpec,
    Operand,
)
from repro.xs1.memory import SRAM_BYTES, Sram
from repro.xs1.registers import RegisterFile, s32, u32
from repro.xs1.resources import REF_CLOCK_HZ, LockResource, TimerResource
from repro.xs1.thread import HardwareThread, IsaThread, StepOutcome, ThreadState

__all__ = [
    "Assembler",
    "AssemblerError",
    "BehavioralThread",
    "CHANEND_BUFFER_TOKENS",
    "CT_ACK",
    "CT_END",
    "CT_NACK",
    "CT_PAUSE",
    "Chanend",
    "CheckCt",
    "Compute",
    "CoreConfig",
    "CoreStats",
    "EnergyClass",
    "ExhaustedError",
    "Fabric",
    "HardwareThread",
    "INSTRUCTION_SET",
    "Instruction",
    "InstructionSpec",
    "IsaThread",
    "LockResource",
    "LoopbackFabric",
    "MemoryAccessError",
    "Operand",
    "Program",
    "REF_CLOCK_HZ",
    "RES_TYPE_CHANEND",
    "RES_TYPE_LOCK",
    "RES_TYPE_TIMER",
    "RecvPacket",
    "RecvToken",
    "RecvWord",
    "RegisterFile",
    "ResourceError",
    "SRAM_BYTES",
    "SendCt",
    "SendToken",
    "SendWord",
    "SetDest",
    "Sleep",
    "Sram",
    "StepOutcome",
    "ThreadState",
    "TimerResource",
    "TrapError",
    "XCore",
    "XS1Error",
    "assemble",
    "s32",
    "u32",
]
