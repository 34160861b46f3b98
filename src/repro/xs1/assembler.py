"""Two-pass assembler for the XS1-style instruction subset.

Source syntax::

    # comment               ; also a comment
    .equ  N, 16             # named constant
    .data 0x100             # set the data cursor (byte address in SRAM)
    .word 1, 2, 3           # emit 32-bit words at the data cursor
    .space 64               # reserve zeroed bytes

    start:                  # label (instruction index)
        ldc   r0, N
    loop:
        subi  r0, r0, 1
        bt    r0, loop
        freet

Labels resolve to instruction indices (the model's program counter is an
instruction index, not a byte address); the ``.data`` section assembles
into SRAM initialisation blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.xs1.errors import AssemblerError
from repro.xs1.isa import INSTRUCTION_SET, Instruction, Operand
from repro.xs1.registers import REGISTER_INDEX

if TYPE_CHECKING:
    from repro.xs1.executor import IssueRow


@dataclass
class Program:
    """An assembled program: instructions, symbols, and SRAM data blocks."""

    instructions: list[Instruction]
    labels: dict[str, int] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    data_blocks: list[tuple[int, bytes]] = field(default_factory=list)
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def issue_table(self) -> list[IssueRow]:
        """One :func:`~repro.xs1.executor.decode` row per instruction,
        indexed by ``pc``; built once, on first use."""
        from repro.xs1.executor import decode

        return [decode(instruction) for instruction in self.instructions]

    def entry(self, label: str = "start") -> int:
        """Instruction index of ``label`` (defaults to ``start``, else 0)."""
        if label in self.labels:
            return self.labels[label]
        if label == "start":
            return 0
        raise AssemblerError(f"unknown entry label {label!r}")

    def disassemble(self) -> str:
        """Human-readable listing with labels re-inserted."""
        by_index: dict[int, list[str]] = {}
        for name, index in self.labels.items():
            by_index.setdefault(index, []).append(name)
        lines = []
        for i, instr in enumerate(self.instructions):
            for name in sorted(by_index.get(i, [])):
                lines.append(f"{name}:")
            lines.append(f"    {instr}")
        return "\n".join(lines)


def _strip_comment(line: str) -> str:
    for marker in ("#", ";"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _split_operands(text: str) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",")]


class Assembler:
    """Two-pass assembler producing :class:`Program` objects."""

    def __init__(self) -> None:
        self._constants: dict[str, int] = {}

    def assemble(self, source: str, name: str = "program") -> Program:
        """Assemble ``source`` text into a :class:`Program`."""
        self._constants = {}
        statements = self._first_pass(source)
        labels = {lbl: idx for lbl, idx in statements["labels"].items()}
        instructions = [
            self._encode(mnemonic, operands, labels, line_no)
            for mnemonic, operands, line_no in statements["code"]
        ]
        return Program(
            instructions=instructions,
            labels=labels,
            constants=dict(self._constants),
            data_blocks=statements["data"],
            name=name,
        )

    # -- pass 1: labels, directives, raw statements ----------------------

    def _first_pass(self, source: str) -> dict:
        labels: dict[str, int] = {}
        code: list[tuple[str, list[str], int]] = []
        data: list[tuple[int, bytes]] = []
        data_cursor: int | None = None
        pending: bytearray = bytearray()
        pending_base = 0

        def flush_data() -> None:
            nonlocal pending, pending_base
            if pending:
                data.append((pending_base, bytes(pending)))
                pending = bytearray()

        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            while ":" in line.split()[0] if line else False:
                label, _, rest = line.partition(":")
                label = label.strip()
                if not label.isidentifier():
                    raise AssemblerError(f"invalid label {label!r}", line_no)
                if label in labels:
                    raise AssemblerError(f"duplicate label {label!r}", line_no)
                labels[label] = len(code)
                line = rest.strip()
                if not line:
                    break
            if not line:
                continue
            parts = line.split(None, 1)
            head = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if head == ".equ":
                operands = _split_operands(rest)
                if len(operands) != 2:
                    raise AssemblerError(".equ expects: .equ NAME, value", line_no)
                name, value = operands
                if not name.isidentifier():
                    raise AssemblerError(f"invalid constant name {name!r}", line_no)
                self._constants[name] = self._parse_int(value, line_no)
            elif head == ".data":
                flush_data()
                data_cursor = self._parse_int(rest.strip(), line_no)
                pending_base = data_cursor
            elif head == ".word":
                if data_cursor is None:
                    raise AssemblerError(".word before .data directive", line_no)
                for item in _split_operands(rest):
                    value = self._parse_int(item, line_no)
                    pending.extend((value & 0xFFFF_FFFF).to_bytes(4, "little"))
                    data_cursor += 4
            elif head == ".space":
                if data_cursor is None:
                    raise AssemblerError(".space before .data directive", line_no)
                count = self._parse_int(rest.strip(), line_no)
                if count < 0:
                    raise AssemblerError(".space count must be non-negative", line_no)
                pending.extend(bytes(count))
                data_cursor += count
            elif head == ".byte":
                if data_cursor is None:
                    raise AssemblerError(".byte before .data directive", line_no)
                for item in _split_operands(rest):
                    pending.append(self._parse_int(item, line_no) & 0xFF)
                    data_cursor += 1
            elif head == ".ascii":
                if data_cursor is None:
                    raise AssemblerError(".ascii before .data directive", line_no)
                text = rest.strip()
                if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                    raise AssemblerError('.ascii expects a "quoted" string', line_no)
                encoded = text[1:-1].encode("ascii")
                pending.extend(encoded)
                data_cursor += len(encoded)
            elif head.startswith("."):
                raise AssemblerError(f"unknown directive {head!r}", line_no)
            else:
                code.append((head, _split_operands(rest), line_no))
        flush_data()
        return {"labels": labels, "code": code, "data": data}

    # -- pass 2: encode ----------------------------------------------------

    def _encode(
        self,
        mnemonic: str,
        operands: list[str],
        labels: dict[str, int],
        line_no: int,
    ) -> Instruction:
        spec = INSTRUCTION_SET.get(mnemonic)
        if spec is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no)
        if len(operands) != len(spec.operands):
            raise AssemblerError(
                f"{mnemonic} expects {len(spec.operands)} operands, got {len(operands)}",
                line_no,
            )
        args = []
        for kind, text in zip(spec.operands, operands):
            if kind is Operand.REG:
                index = REGISTER_INDEX.get(text.lower())
                if index is None:
                    raise AssemblerError(f"unknown register {text!r}", line_no)
                args.append(index)
            elif kind is Operand.LABEL:
                if text not in labels:
                    raise AssemblerError(f"unknown label {text!r}", line_no)
                args.append(labels[text])
            else:
                args.append(self._parse_int(text, line_no))
        return Instruction(spec, tuple(args))

    def _parse_int(self, text: str, line_no: int) -> int:
        text = text.strip()
        if not text:
            raise AssemblerError("empty operand", line_no)
        if text in self._constants:
            return self._constants[text]
        if len(text) == 3 and text[0] == text[2] == "'":
            return ord(text[1])
        try:
            return int(text, 0)
        except ValueError:
            raise AssemblerError(f"cannot parse integer {text!r}", line_no) from None


def assemble(source: str, name: str = "program") -> Program:
    """Convenience one-shot assembly of ``source``."""
    return Assembler().assemble(source, name=name)
