"""The quiet-bound table: per pc, the register-only instructions a thread
is sure to issue before one that may pause, halt, trap, read the clock or
touch SRAM or a resource (:func:`repro.xs1.executor.quiet_bound`)."""

from __future__ import annotations

import pytest

from repro.apps import kernels
from repro.xs1 import assemble
from repro.xs1.executor import _HANDLERS, _QUIET, QUIET_CAP, quiet_bound
from repro.xs1.isa import INSTRUCTION_SET, EnergyClass, Instruction, InstructionSpec

SPIN = """
    ldc r0, 5
loop:
    subi r0, r0, 1
    bt r0, loop
    freet
"""


def test_spin_loop():
    assert assemble(SPIN).quiet_bound == [3, 2, 1, 0]


def test_memcpy_kernel_stops_before_memory():
    program = kernels.memcpy_words(4).program
    mnemonics = [instruction.mnemonic for instruction in program.instructions]
    assert mnemonics == ["ldc", "ldc", "ldc", "ldw", "stw", "addi", "addi",
                         "subi", "bt", "freet"]
    # ldc x3 run up to the ldw; addi, addi, subi, bt up to the next ldw
    # or the freet.
    assert program.quiet_bound == [3, 2, 1, 0, 0, 4, 3, 2, 1, 0]


def test_call_and_return():
    program = assemble("""
        bl sub          # 0: on to the ldc, the ret and then unknown
        nop             # 1
        freet           # 2
    sub:
        ldc r1, 1       # 3
        ret             # 4: ends a run after itself
    """)
    assert program.quiet_bound == [3, 1, 0, 2, 1]


def test_computed_branch_ends_after_itself():
    program = assemble("""
        ldc r0, 3
        bru r0
        freet
        nop
    """)
    assert program.quiet_bound[:2] == [2, 1]


def test_fall_through_off_the_end():
    assert assemble("ldc r0, 1\nnop\nnop").quiet_bound == [3, 2, 1]


def test_branch_out_of_the_program_ends_the_bound():
    program = assemble("ldc r0, 1\nnop")
    program.instructions[1] = Instruction(INSTRUCTION_SET["bu"], (7,))
    assert program.quiet_bound == [2, 1]


def test_quiet_loop_without_exit_is_capped():
    program = assemble("spin: nop\nbu spin")
    assert program.quiet_bound == [QUIET_CAP, QUIET_CAP]


def test_shortest_path_over_branches():
    program = assemble("""
        ldc r0, 1       # 0
        bf r0, far      # 1: on to 2 (one quiet more) or to far (three)
        stw r0, r0, 0   # 2
    far:
        nop             # 3
        nop             # 4
        nop             # 5
        freet           # 6
    """)
    assert program.quiet_bound == [2, 1, 0, 3, 2, 1, 0]


@pytest.mark.parametrize("source", [
    "ldc r1, 2\ndivu r0, r1, r2",
    "ldc r1, 2\nremu r0, r1, r2",
    "ldc r1, 2\ngettime r0",
    "ldc r1, 2\nwaiteu",
    "ldc r1, 2\nfreet",
    "ldc r1, 2\nldw r0, r1, 0",
    "ldc r1, 2\ngetr r0, 2",
    "ldc r1, 2\nin r0, r1",
    "ldc r1, 2\nsext r0, 33",
])
def test_loud_instructions_read_zero(source):
    assert assemble(source).quiet_bound == [1, 0]


def test_unimplemented_mnemonic_reads_zero():
    program = assemble("ldc r0, 7\nnop\nfreet")
    bogus = InstructionSpec("bogus", (), EnergyClass.NOP, "no handler")
    program.instructions[1] = Instruction(bogus)
    assert program.quiet_bound == [1, 0, 0]


def test_register_outside_the_file_reads_zero():
    program = assemble("ldc r0, 7\nnop\nfreet")
    program.instructions[1] = Instruction(INSTRUCTION_SET["add"], (16, 0, 0))
    assert program.quiet_bound == [1, 0, 0]
    assert quiet_bound([Instruction(INSTRUCTION_SET["mov"], (0, -1))]) == [0]


def test_quiet_mnemonics_are_register_only():
    """Every quiet handler exists and none is a memory, resource,
    communication or divide instruction."""
    assert set(_QUIET) <= set(_HANDLERS)
    loud = {EnergyClass.MEM_LOAD, EnergyClass.MEM_STORE, EnergyClass.COMM,
            EnergyClass.RESOURCE, EnergyClass.DIV}
    for mnemonic in _QUIET:
        assert INSTRUCTION_SET[mnemonic].energy_class not in loud, mnemonic
    assert {"freet", "waiteu", "gettime", "divu", "remu", "sext", "zext"}.isdisjoint(_QUIET)
