"""Tests for behavioural (coroutine) threads."""

import pytest

from repro.sim import Simulator
from repro.xs1 import (
    CT_END,
    BehavioralThread,
    CheckCt,
    Compute,
    LoopbackFabric,
    RecvToken,
    RecvWord,
    SendCt,
    SendToken,
    SendWord,
    Sleep,
    TrapError,
    XCore,
    assemble,
)


class TestCompute:
    def test_compute_occupies_slots(self, sim, core):
        def body():
            yield Compute(100)

        thread = BehavioralThread(core, body())
        sim.run()
        assert thread.halted
        assert thread.instructions_executed == 100
        # Single thread: one issue per 4 cycles.
        assert core.cycle == pytest.approx(400, abs=8)

    def test_compute_zero_is_free(self, sim, core):
        def body():
            yield Compute(0)

        thread = BehavioralThread(core, body())
        sim.run()
        assert thread.halted
        assert thread.instructions_executed == 0

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)

    @pytest.mark.parametrize("threads", range(1, 6))
    def test_behavioral_matches_isa_timing(self, sim, core, make_core, threads):
        """``Compute(202)`` issues exactly like the 202 instructions of a
        ``subi``/``bt`` loop, thread for thread and cycle for cycle.

        One pipeline effect differs, at the end: a behavioural thread's
        halt (its generator's ``StopIteration``) takes one issue slot of
        its own that retires no instruction, while ISA ``freet`` retires
        as a NOP in the slot of the 202nd instruction.  So each
        behavioural thread uses one slot more and halts one issue period
        (``max(4, threads)`` cycles, Eq. 2) later.
        """
        other = make_core()
        halts: dict = {core: [], other: []}
        for each in (core, other):
            each.on_halt_callbacks.append(
                lambda thread, each=each: halts[each].append(each.cycle))

        def body():
            yield Compute(202)

        program = assemble("""
            ldc r0, 100
        loop:
            subi r0, r0, 1
            bt r0, loop
            freet
        """)
        behavioral = [BehavioralThread(core, body()) for _ in range(threads)]
        isa = [other.spawn(program) for _ in range(threads)]
        sim.run()
        period = max(4, threads)
        for group in (behavioral, isa):
            assert [t.instructions_executed for t in group] == [202] * threads
        assert core.stats.total_instructions == 202 * threads
        assert other.stats.total_instructions == 202 * threads
        assert core.stats.slots_issued == 203 * threads
        assert other.stats.slots_issued == 202 * threads
        # Thread i issues its j-th slot at cycle 1 + i + period * j.
        assert halts[other] == [1 + i + period * 201 for i in range(threads)]
        assert halts[core] == [1 + i + period * 202 for i in range(threads)]


class TestCommunication:
    def test_word_roundtrip(self, sim, core):
        a = core.allocate_chanend()
        b = core.allocate_chanend()
        a.set_dest(b.address)
        b.set_dest(a.address)
        received = []

        def producer():
            yield SendWord(a, 0x12345678)

        def consumer():
            word = yield RecvWord(b)
            received.append(word)

        BehavioralThread(core, producer())
        BehavioralThread(core, consumer())
        sim.run()
        assert received == [0x12345678]

    def test_token_and_ct_roundtrip(self, sim, core):
        a = core.allocate_chanend()
        b = core.allocate_chanend()
        a.set_dest(b.address)
        got = []

        def producer():
            yield SendToken(a, 7)
            yield SendCt(a, CT_END)

        def consumer():
            value = yield RecvToken(b)
            got.append(value)
            yield CheckCt(b, CT_END)

        BehavioralThread(core, producer())
        consumer_thread = BehavioralThread(core, consumer())
        sim.run()
        assert got == [7]
        assert consumer_thread.halted

    def test_checkct_mismatch_traps(self, sim, core):
        a = core.allocate_chanend()
        b = core.allocate_chanend()
        a.set_dest(b.address)

        def producer():
            yield SendToken(a, 1)

        def consumer():
            yield CheckCt(b, CT_END)

        BehavioralThread(core, producer())
        BehavioralThread(core, consumer())
        with pytest.raises(TrapError):
            sim.run()

    def test_blocking_receive_then_data(self, sim, core):
        a = core.allocate_chanend()
        b = core.allocate_chanend()
        a.set_dest(b.address)
        order = []

        def slow_producer():
            yield Compute(500)
            order.append("sent")
            yield SendWord(a, 1)

        def eager_consumer():
            yield RecvWord(b)
            order.append("received")

        BehavioralThread(core, slow_producer())
        BehavioralThread(core, eager_consumer())
        sim.run()
        assert order == ["sent", "received"]

    def test_pingpong_many_rounds(self, sim, core, make_core):
        other = make_core()
        a = core.allocate_chanend()
        b = other.allocate_chanend()
        a.set_dest(b.address)
        b.set_dest(a.address)
        rounds = 20
        log = []

        def ping():
            for i in range(rounds):
                yield SendWord(a, i)
                echoed = yield RecvWord(a)
                log.append(echoed)

        def pong():
            for _ in range(rounds):
                value = yield RecvWord(b)
                yield SendWord(b, value)

        BehavioralThread(core, ping())
        BehavioralThread(other, pong())
        sim.run()
        assert log == list(range(rounds))


class TestSleep:
    def test_sleep_advances_time_without_slots(self, sim, core):
        def body():
            yield Compute(4)
            yield Sleep(1000)
            yield Compute(4)

        thread = BehavioralThread(core, body())
        sim.run()
        assert thread.halted
        assert thread.instructions_executed == 8
        assert core.cycle >= 1000

    def test_sleeping_thread_frees_slots_for_others(self, sim, core):
        """While one thread sleeps, another gets full f/4 issue rate."""
        def sleeper():
            yield Sleep(10_000)

        def worker():
            yield Compute(100)

        BehavioralThread(core, sleeper())
        worker_thread = BehavioralThread(core, worker())
        sim.run_until(core.frequency.cycles_to_ps(450))
        assert worker_thread.halted  # ~404 cycles needed at f/4
