"""The quiet-bound table: per pc, the register-only instructions a thread
is sure to issue before one that may pause, halt, trap, read the clock or
touch SRAM or a resource (:func:`repro.xs1.executor.quiet_bound`); the
registers quiet handlers declare they write; and the counted-loop table
built on both (:func:`repro.xs1.executor.loop_table`), with the budget a
thread reads from it (:meth:`repro.xs1.thread.IsaThread.silent_budget`)."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro import SwallowSystem
from repro.apps import kernels
from repro.xs1 import assemble
from repro.xs1.executor import (
    _HANDLERS,
    _QUIET,
    QUIET_CAP,
    CountedLoop,
    StepOutcome,
    _next,
    quiet_bound,
)
from repro.xs1.isa import (
    INSTRUCTION_SET,
    EnergyClass,
    Instruction,
    InstructionSpec,
    Operand,
)
from repro.xs1.registers import NUM_REGISTERS, RegisterFile

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


# ---------------------------------------------------------------------------
# What quiet handlers write, and the counted-loop table built on it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mnemonic", sorted(_QUIET))
def test_quiet_handlers_write_only_the_declared_register(mnemonic):
    """On random register files and in-file operands, a quiet handler
    changes no register but the one it declares, moves the pc only
    where its flow says, and touches neither the core nor any other
    thread state (the stand-ins have nothing else)."""
    rng = random.Random(mnemonic)
    spec = INSTRUCTION_SET[mnemonic]
    handler = _HANDLERS[mnemonic]
    flow, writes = _QUIET[mnemonic]
    for _ in range(200):
        args = tuple(rng.randrange(NUM_REGISTERS) if kind is Operand.REG
                     else rng.randrange(64) if kind is Operand.LABEL
                     else rng.choice((rng.randrange(40), rng.getrandbits(32),
                                      -rng.getrandbits(31)))
                     for kind in spec.operands)
        pc = rng.randrange(64)
        registers = RegisterFile()
        registers.values[:] = [rng.getrandbits(32) for _ in range(NUM_REGISTERS)]
        before = list(registers.values)
        thread = SimpleNamespace(registers=registers, ip=pc, name="t")
        assert handler(None, thread, args) is StepOutcome.ISSUED
        written = writes(args)
        changed = {index for index in range(NUM_REGISTERS)
                   if registers.values[index] != before[index]}
        assert changed <= ({written} if written is not None else set()), (args, changed)
        targets = flow(pc, args)
        if targets:
            assert thread.ip in targets, (args, thread.ip)
        assert all(0 <= value <= 0xFFFF_FFFF for value in registers.values)


def test_every_straight_line_mnemonic_writes_its_first_operand():
    for mnemonic, (flow, writes) in _QUIET.items():
        if flow is not _next:
            continue
        args = tuple(range(len(INSTRUCTION_SET[mnemonic].operands)))
        expected = None if mnemonic == "nop" else 0
        assert writes(args) == expected, mnemonic


def test_spin_loop_is_counted():
    assert assemble(SPIN).loop_table == [
        None,
        CountedLoop(counter=0, step=1, before=True, rest=2, turn=2),
        CountedLoop(counter=0, step=1, before=False, rest=1, turn=2),
        None,
    ]


def test_step_of_three_is_counted():
    program = assemble("""
        ldc r1, 30          # 0
    loop:
        add r2, r2, r1      # 1: reads the counter
        subi r1, r1, 3      # 2
        nop                 # 3
        bt r1, loop         # 4
        freet               # 5
    """)
    assert program.loop_table == [
        None,
        CountedLoop(1, 3, True, 4, 4),
        CountedLoop(1, 3, True, 3, 4),
        CountedLoop(1, 3, False, 2, 4),
        CountedLoop(1, 3, False, 1, 4),
        None,
    ]


def test_loop_rows_count_the_quiet_run_after_the_loop():
    program = assemble("""
        ldc r0, 3           # 0
    loop:
        subi r0, r0, 1      # 1
        bt r0, loop         # 2
        mov r1, r0          # 3
        nop                 # 4
        freet               # 5
    """)
    assert program.quiet_bound[3] == 2
    assert [row and row.rest for row in program.loop_table] == [None, 4, 3, None, None, None]


def test_memcpy_kernel_loop_is_not_counted():
    """Its body loads and stores."""
    assert kernels.memcpy_words(4).program.loop_table == [None] * 10


@pytest.mark.parametrize("body", [
    "subi r0, r0, 1\nmov r0, r1",      # a second writer of the counter
    "subi r0, r0, 1\naddi r0, r0, 2",
    "subi r0, r0, 1\nsubi r0, r0, 1",
    "subi r0, r1, 1",                  # writes the counter from another register
    "subi r0, r0, 0",                  # a step of 0
    "addi r0, r0, 1",                  # counts up
    "nop",                             # nothing writes the counter
    "subi r0, r0, 1\nbf r1, loop",     # a branch in the body
    "subi r0, r0, 1\nbl loop",
    "subi r0, r0, 1\nldw r1, r2, 0",   # a loud instruction in the body
    "subi r0, r0, 1\ngettime r1",
])
def test_loops_that_are_not_counted(body):
    program = assemble(f"ldc r0, 5\nloop:\n{body}\nbt r0, loop\nfreet")
    assert program.loop_table == [None] * len(program)


def test_forward_bt_is_not_counted():
    program = assemble("""
        ldc r0, 5
        subi r0, r0, 1
        bt r0, ahead
    ahead:
        freet
    """)
    assert program.loop_table == [None] * 4


def test_body_operand_outside_the_file_is_not_counted():
    program = assemble("ldc r0, 5\nloop:\nsubi r0, r0, 1\nnop\nbt r0, loop\nfreet")
    program.instructions[2] = Instruction(INSTRUCTION_SET["add"], (16, 0, 0))
    assert program.loop_table == [None] * 5
    program = assemble("ldc r0, 5\nloop:\nsubi r0, r0, 1\nbt r0, loop\nfreet")
    program.instructions[2] = Instruction(INSTRUCTION_SET["bt"], (16, 1))
    assert program.loop_table == [None] * 4


def test_only_the_inner_of_nested_loops_is_counted():
    program = assemble("""
        ldc r1, 3           # 0
    outer:
        ldc r0, 4           # 1
    inner:
        subi r0, r0, 1      # 2
        bt r0, inner        # 3
        subi r1, r1, 1      # 4
        bt r1, outer        # 5
        freet               # 6
    """)
    assert program.quiet_bound == [6, 5, 4, 3, 2, 1, 0]
    assert program.loop_table == [
        None, None,
        CountedLoop(0, 1, True, 4, 2),
        CountedLoop(0, 1, False, 3, 2),
        None, None, None,
    ]


STEP3 = """
    ldc r1, {n}         # 0
loop:
    add r2, r2, r1      # 1
    subi r1, r1, 3      # 2
    nop                 # 3
    bt r1, loop         # 4
    freet               # 5
"""


@pytest.mark.parametrize("source, counter, pc, value, budget", [
    # The subi after SPIN's first turn: 2 + 98 * 2 + 0, every issue left.
    pytest.param(SPIN, 0, 1, 99, 198, id="spin-subi"),
    pytest.param(SPIN, 0, 2, 99, 1 + 99 * 2, id="spin-bt"),
    pytest.param(SPIN, 0, 2, 0, 1, id="spin-falls-through"),
    pytest.param(SPIN, 0, 1, 1, 2, id="spin-last-turn"),
    pytest.param(SPIN, 0, 1, 0, QUIET_CAP, id="spin-wraps"),
    pytest.param(SPIN, 0, 0, 5, 3, id="spin-outside-the-loop"),
    pytest.param(STEP3.format(n=30), 1, 1, 30, 4 + 9 * 4, id="step3-head"),
    pytest.param(STEP3.format(n=30), 1, 3, 27, 2 + 9 * 4, id="step3-after-subi"),
    pytest.param(STEP3.format(n=31), 1, 1, 31, 4, id="step3-no-multiple"),
    pytest.param(STEP3.format(n=30), 1, 4, 0, 1, id="step3-falls-through"),
    pytest.param(STEP3.format(n=30), 1, 1, 3, 4, id="step3-last-turn"),
])
def test_counted_budget(source, counter, pc, value, budget):
    system = SwallowSystem()
    thread = system.core(0).spawn(assemble(source))
    thread.ip = pc
    thread.registers.values[counter] = value
    assert thread.silent_budget() == budget
