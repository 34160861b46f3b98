"""Register file and 32-bit arithmetic helpers for the XS1 model.

The XS1 ISA exposes twelve general-purpose registers ``r0``–``r11`` plus
four special registers: ``cp`` (constant pool), ``dp`` (data pointer),
``sp`` (stack pointer) and ``lr`` (link register).  The program counter is
held on the :class:`~repro.xs1.thread.HardwareThread` rather than in the
register file.
"""

from __future__ import annotations

from repro.xs1.errors import TrapError

#: Number of general-purpose registers.
NUM_GP_REGISTERS = 12

#: Name -> register-file index.  GP registers first, then specials.
REGISTER_INDEX: dict[str, int] = {f"r{i}": i for i in range(NUM_GP_REGISTERS)}
REGISTER_INDEX.update({"cp": 12, "dp": 13, "sp": 14, "lr": 15})

#: Index -> canonical name.
REGISTER_NAME: dict[int, str] = {v: k for k, v in REGISTER_INDEX.items()}

NUM_REGISTERS = len(REGISTER_INDEX)

_MASK32 = 0xFFFF_FFFF


def u32(value: int) -> int:
    """Wrap ``value`` to an unsigned 32-bit integer."""
    return value & _MASK32


def s32(value: int) -> int:
    """Interpret the low 32 bits of ``value`` as a signed integer."""
    value &= _MASK32
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class RegisterFile:
    """A thread's register file: 12 GP + 4 special 32-bit registers."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        #: The registers' values by index.  Instruction handlers index
        #: this list directly (decoding traps any instruction whose
        #: register operand lies outside the file) and wrap what they
        #: store to 32 bits; other code goes through :meth:`read` and
        #: :meth:`write`.
        self.values = [0] * NUM_REGISTERS

    def read(self, index: int) -> int:
        """Read register ``index`` (always an unsigned 32-bit value)."""
        if not 0 <= index < NUM_REGISTERS:
            raise TrapError(f"invalid register index {index}")
        return self.values[index]

    def write(self, index: int, value: int) -> None:
        """Write ``value`` (wrapped to 32 bits) to register ``index``."""
        if not 0 <= index < NUM_REGISTERS:
            raise TrapError(f"invalid register index {index}")
        self.values[index] = value & _MASK32

    def read_named(self, name: str) -> int:
        """Read a register by name, e.g. ``"r3"`` or ``"sp"``."""
        return self.read(REGISTER_INDEX[name])

    def write_named(self, name: str, value: int) -> None:
        """Write a register by name."""
        self.write(REGISTER_INDEX[name], value)

    def snapshot(self) -> dict[str, int]:
        """A name -> value mapping of the whole file (for debugging)."""
        return {REGISTER_NAME[i]: self.values[i] for i in range(NUM_REGISTERS)}
