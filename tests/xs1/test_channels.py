"""Channel-communication tests over the loopback fabric."""

import gc

import pytest

from repro.network.header import ChanendAddress
from repro.network.token import data_token
from repro.sim import Simulator
from repro.xs1 import (
    CT_END,
    Chanend,
    LockResource,
    LoopbackFabric,
    ResourceError,
    TimerResource,
    TrapError,
    XCore,
    assemble,
)


class TestIsaChannels:
    def test_word_transfer_between_threads(self, sim, core):
        """Two threads on one core exchange a word through chanends."""
        producer = assemble("""
            getr r0, 2              # our chanend
            ldc r1, 0x100
            stw r0, r1, 0           # publish our id at 0x100
        wait_peer:
            ldw r2, r1, 1           # peer id written at 0x104
            bf r2, wait_peer
            setd r0, r2
            ldc r3, 0xBEEF
            out r0, r3
            freet
        """)
        consumer = assemble("""
            getr r0, 2
            ldc r1, 0x100
            stw r0, r1, 1           # publish our id at 0x104
        wait_peer:
            ldw r2, r1, 0
            bf r2, wait_peer
            setd r0, r2
            in r4, r0
            ldc r5, 0x200
            stw r4, r5, 0           # store result at 0x200
            freet
        """)
        core.spawn(producer)
        core.spawn(consumer)
        sim.run()
        assert core.all_halted
        assert core.memory.load_word(0x200) == 0xBEEF

    def test_in_blocks_until_data(self, sim, core):
        """A lone receiver pauses rather than spinning."""
        receiver = core.spawn(assemble("""
            getr r0, 2
            in r1, r0
            freet
        """))
        sim.run()
        assert not receiver.halted
        assert receiver.state.value == "paused"

    def test_control_token_roundtrip(self, sim, core):
        program = assemble("""
            getr r0, 2
            getr r1, 2
            # extract addresses: send r0 -> r1 and check END token
            setd r0, r1
            setd r1, r0
            outct r0, 1            # CT_END
            chkct r1, 1
            ldc r2, 1
            ldc r3, 0x80
            stw r2, r3, 0
            freet
        """)
        core.spawn(program)
        sim.run()
        assert core.all_halted
        assert core.memory.load_word(0x80) == 1

    def test_chkct_wrong_token_traps(self, sim, core):
        program = assemble("""
            getr r0, 2
            getr r1, 2
            setd r0, r1
            ldc r2, 42
            outt r0, r2            # data token, not control
            chkct r1, 1
            freet
        """)
        core.spawn(program)
        with pytest.raises(TrapError, match="chkct"):
            sim.run()

    def test_token_transfer(self, sim, core):
        program = assemble("""
            getr r0, 2
            getr r1, 2
            setd r0, r1
            ldc r2, 0x5A
            outt r0, r2
            intt r2, r1
            ldc r3, 0x90
            stw r2, r3, 0
            freet
        """)
        core.spawn(program)
        sim.run()
        assert core.memory.load_word(0x90) == 0x5A

    def test_send_before_setd_raises(self, sim, core):
        core.spawn(assemble("""
            getr r0, 2
            ldc r1, 7
            out r0, r1
            freet
        """))
        with pytest.raises(Exception, match="setd"):
            sim.run()

    def test_out_backpressure_blocks_sender(self, sim, core):
        """Filling the tx+rx buffers with no receiver pauses the sender."""
        sender = core.spawn(assemble("""
            getr r0, 2
            getr r1, 2
            setd r0, r1
            ldc r2, 20
        loop:
            out r0, r2              # 4 tokens per word; nobody drains r1
            subi r2, r2, 1
            bt r2, loop
            freet
        """))
        sim.run()
        assert not sender.halted
        assert sender.pause_reason is not None and "out" in sender.pause_reason

    def test_cross_core_transfer_on_shared_fabric(self, sim, core, make_core):
        """Loopback fabric delivers between chanends of different cores."""
        other = make_core()
        tx = core.allocate_chanend()
        rx = other.allocate_chanend()
        tx.set_dest(rx.address)

        sender = core.spawn(assemble("""
            ldc r1, 0xCAFE
            out r0, r1
            freet
        """), regs={"r0": tx.address.encode()})
        receiver = other.spawn(assemble("""
            in r1, r0
            ldc r2, 0x100
            stw r1, r2, 0
            freet
        """), regs={"r0": rx.address.encode()})
        sim.run()
        assert sender.halted and receiver.halted
        assert other.memory.load_word(0x100) == 0xCAFE


class TestLocksAndTimers:
    def test_lock_mutual_exclusion(self, sim, core):
        """Two threads increment a shared counter under a lock."""
        program = assemble("""
            # r0 = lock id (preloaded), r1 = iterations
            ldc r1, 50
        loop:
            in r2, r0               # acquire
            ldc r3, 0x500
            ldw r4, r3, 0
            addi r4, r4, 1
            stw r4, r3, 0
            out r0, r4              # release (value ignored for locks)
            subi r1, r1, 1
            bt r1, loop
            freet
        """)
        lock_id = core.allocate_resource(3)
        core.spawn(program, regs={"r0": lock_id})
        core.spawn(program, regs={"r0": lock_id})
        sim.run()
        assert core.all_halted
        assert core.memory.load_word(0x500) == 100

    def test_timer_read_monotonic(self, sim, core):
        thread = core.spawn(assemble("""
            getr r0, 1
            in r1, r0
            ldc r3, 200
        spin:
            subi r3, r3, 1
            bt r3, spin
            in r2, r0
            freet
        """))
        sim.run()
        assert thread.regs.read(2) > thread.regs.read(1)

    def test_timer_reads_reference_clock(self, sim, core):
        """Timer ticks at 100 MHz regardless of core frequency."""
        thread = core.spawn(assemble("""
            getr r0, 1
            in r1, r0
            freet
        """))
        sim.run()
        # getr at cycle c, in at c+4: elapsed sim time ~8 cycles * 2ns = 16ns
        # -> 1 reference tick (10 ns each).
        assert thread.regs.read(1) <= 2

    def test_release_unheld_lock_raises(self, sim, core):
        lock_id = core.allocate_resource(3)
        core.spawn(assemble("out r0, r1\nfreet"), regs={"r0": lock_id})
        with pytest.raises(Exception, match="held by"):
            sim.run()


class TestResourceLifecycle:
    def test_getr_returns_distinct_chanends(self, sim, core):
        thread = core.spawn(assemble("""
            getr r0, 2
            getr r1, 2
            freet
        """))
        sim.run()
        assert thread.regs.read(0) != thread.regs.read(1)
        assert thread.regs.read(0) & 0xFF == 2

    def test_freer_allows_reallocation(self, sim, core):
        thread = core.spawn(assemble("""
            getr r0, 2
            freer r0
            getr r1, 2
            freet
        """))
        sim.run()
        assert thread.regs.read(0) == thread.regs.read(1)

    def test_chanend_exhaustion(self, sim, core):
        n = core.config.num_chanends
        source = "\n".join(["getr r0, 2"] * (n + 1)) + "\nfreet"
        core.spawn(assemble(source))
        with pytest.raises(Exception, match="out of channel ends"):
            sim.run()

    def test_unallocated_chanend_use_traps(self, sim, core):
        unused = core.chanend(5)
        core.spawn(assemble("out r0, r1\nfreet"),
                   regs={"r0": unused.address.encode()})
        with pytest.raises(TrapError, match="not allocated"):
            sim.run()


def _index(resource_id: int) -> int:
    return (resource_id >> 8) & 0xFF


class TestLazyResources:
    """A core makes each chanend, timer and lock the first time it is used."""

    def test_fresh_build_holds_no_resource_objects(self):
        from repro import SwallowSystem

        def resources() -> int:
            return sum(1 for obj in gc.get_objects()
                       if isinstance(obj, (Chanend, TimerResource, LockResource)))

        gc.collect()
        before = resources()
        system = SwallowSystem()
        assert len(system.cores) == 16
        assert resources() == before

    def test_token_to_untouched_chanend_lands_in_its_rx(self, sim, core, make_core):
        other = make_core()
        assert other._chanends[5] is None   # nothing on `other` touched it
        tx = core.allocate_chanend()
        tx.set_dest(ChanendAddress(other.node_id, 5))
        tx.push_tx([data_token(0x42)])
        sim.run()
        rx = other.chanend(5)
        assert [token.value for token in rx.rx] == [0x42]
        assert rx.tokens_received == 1
        assert not rx.allocated

    def test_getr_hands_out_the_lowest_free_index(self, sim, core):
        core.chanend(0)        # looked up, not allocated: still free
        thread = core.spawn(assemble("""
            getr r0, 2
            getr r1, 2
            getr r2, 2
            freer r1
            getr r3, 2
            getr r4, 1
            getr r5, 1
            freer r4
            getr r6, 1
            getr r7, 3
            getr r8, 3
            freer r7
            getr r9, 3
            freet
        """))
        sim.run()
        indexes = [_index(thread.regs.read(r)) for r in range(10)]
        assert indexes == [0, 1, 2, 1, 0, 1, 0, 0, 1, 0]
        assert thread.regs.read(3) == thread.regs.read(1)

    def test_host_allocation_reuses_a_freed_chanend(self, core):
        first = core.allocate_chanend()
        second = core.allocate_chanend()
        core.free_resource(first.address.encode())
        assert core.allocate_chanend() is first
        assert core.allocate_chanend().index == second.index + 1

    def test_lookup_alone_leaves_the_snapshot_unchanged(self):
        def build() -> XCore:
            sim = Simulator()
            return XCore(sim, node_id=0, fabric=LoopbackFabric(sim))

        looked_up, untouched = build(), build()
        looked_up.chanend(3)
        looked_up.chanend(31)
        assert looked_up.snapshot_state() == untouched.snapshot_state()

    def test_chanend_lookup_returns_one_object(self, core):
        assert core.chanend(4) is core.chanend(4)
        allocated = core.allocate_chanend()
        assert core.chanend(allocated.index) is allocated

    @pytest.mark.parametrize("index", [-1, -32, 32, 255])
    def test_chanend_index_outside_the_pool_raises(self, core, index):
        with pytest.raises(ResourceError, match=f"core0: no chanend {index}$"):
            core.chanend(index)
