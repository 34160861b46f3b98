"""Edge cases of instruction execution and resource handling."""

import pytest

from repro.sim import Simulator
from repro.xs1 import (
    LoopbackFabric,
    ResourceError,
    TrapError,
    XCore,
    assemble,
)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def core(sim):
    return XCore(sim, node_id=0, fabric=LoopbackFabric(sim))


class TestResourceEdges:
    def test_getr_port_unsupported(self, sim, core):
        core.spawn(assemble("getr r0, 0\nfreet"))
        with pytest.raises(TrapError, match="unsupported resource type"):
            sim.run()

    def test_freer_garbage_id(self, sim, core):
        core.spawn(assemble("ldc r0, 0xFF\nfreer r0\nfreet"))
        with pytest.raises(TrapError, match="freer"):
            sim.run()

    def test_in_from_unsupported_type(self, sim, core):
        core.spawn(assemble("""
            ldc r0, 0x07       # type 7: not a resource we model
            in r1, r0
            freet
        """))
        with pytest.raises(TrapError, match="unsupported resource"):
            sim.run()

    def test_setd_on_foreign_node_chanend_traps(self, sim, core):
        foreign = (42 << 16) | (0 << 8) | 2
        core.spawn(assemble("setd r0, r1\nfreet"), regs={"r0": foreign})
        with pytest.raises(TrapError, match="not on node"):
            sim.run()

    def test_timer_exhaustion(self, sim, core):
        n = core.config.num_timers
        source = "\n".join(["getr r0, 1"] * (n + 1)) + "\nfreet"
        core.spawn(assemble(source))
        with pytest.raises(ResourceError, match="out of timers"):
            sim.run()

    def test_lock_exhaustion(self, sim, core):
        n = core.config.num_locks
        source = "\n".join(["getr r0, 3"] * (n + 1)) + "\nfreet"
        core.spawn(assemble(source))
        with pytest.raises(ResourceError, match="out of locks"):
            sim.run()

    def test_freed_timer_read_traps(self, sim, core):
        core.spawn(assemble("""
            getr r0, 1
            freer r0
            in r1, r0
            freet
        """))
        with pytest.raises(TrapError, match="not allocated"):
            sim.run()

    def test_lock_reacquire_by_holder_is_idempotent(self, sim, core):
        lock_id = core.allocate_resource(3)
        thread = core.spawn(assemble("""
            in r1, r0
            in r2, r0          # re-acquire while holding: no self-deadlock
            out r0, r1
            freet
        """), regs={"r0": lock_id})
        sim.run()
        assert thread.halted


class TestMemoryEdges:
    def test_unaligned_load_traps_cleanly(self, sim, core):
        from repro.xs1 import MemoryAccessError

        core.spawn(assemble("ldc r0, 2\nldw r1, r0, 0\nfreet"))
        with pytest.raises(MemoryAccessError):
            sim.run()

    def test_wrapped_address_is_checked(self, sim, core):
        from repro.xs1 import MemoryAccessError

        core.spawn(assemble("""
            ldc r0, 0xFFFF0000
            ldw r1, r0, 0
            freet
        """))
        with pytest.raises(MemoryAccessError):
            sim.run()


class TestControlEdges:
    def test_in_word_with_interleaved_control_token_traps(self, sim, core):
        program = assemble("""
            getr r0, 2
            getr r1, 2
            setd r0, r1
            ldc r2, 1
            outt r0, r2        # one data token...
            outct r0, 1        # ...then a control token mid-word
            outt r0, r2
            outt r0, r2
            in r3, r1          # expects 4 clean data tokens
            freet
        """)
        core.spawn(program)
        with pytest.raises(TrapError, match="control token"):
            sim.run()

    def test_intt_on_control_token_traps(self, sim, core):
        program = assemble("""
            getr r0, 2
            getr r1, 2
            setd r0, r1
            outct r0, 1
            intt r2, r1
            freet
        """)
        core.spawn(program)
        with pytest.raises(TrapError, match="control token"):
            sim.run()

    def test_unimplemented_mnemonic_traps_when_it_issues(self, sim, core):
        from repro.xs1.isa import EnergyClass, Instruction, InstructionSpec

        program = assemble("ldc r0, 7\nnop\nfreet")
        bogus = InstructionSpec("bogus", (), EnergyClass.NOP, "no handler")
        program.instructions[1] = Instruction(bogus)
        thread = core.spawn(program)       # decoding the program does not trap
        with pytest.raises(TrapError, match="unimplemented mnemonic 'bogus'"):
            sim.run()
        assert thread.instructions_executed == 1
        assert thread.regs.read_named("r0") == 7

    def test_register_outside_the_file_traps_when_it_issues(self, sim, core):
        from repro.xs1.isa import INSTRUCTION_SET, Instruction

        program = assemble("ldc r0, 7\nnop\nfreet")
        program.instructions[1] = Instruction(INSTRUCTION_SET["add"], (16, 0, 0))
        thread = core.spawn(program)       # decoding the program does not trap
        with pytest.raises(TrapError, match="invalid register index 16"):
            sim.run()
        assert thread.instructions_executed == 1


class TestCliIsa:
    def test_isa_listing(self, capsys):
        from repro.__main__ import main

        assert main(["isa"]) == 0
        out = capsys.readouterr().out
        assert "instructions in the XS1 subset" in out
        assert "waiteu" in out
        assert "[comm]" in out
