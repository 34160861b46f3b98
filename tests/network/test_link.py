"""Unit tests for half-links, credits, and direction groups."""

import pytest

from repro.network.link import DirectionGroup, HalfLink
from repro.network.params import (
    LINK_BOARD_VERTICAL,
    LINK_ON_CHIP,
    SWITCH_BUFFER_TOKENS,
    LinkSpec,
    symbol_timing_cycles,
)
from repro.network.token import data_token
from repro.sim import SimulationError, Simulator


class FakePort:
    """Minimal InputPort stand-in."""

    def __init__(self):
        self.tokens = []
        self.pumps = 0
        self.granted = []

    def accept(self, token):
        self.tokens.append(token)

    def pump(self):
        self.pumps += 1

    def granted_link(self, link):
        self.granted.append(link)


def make_link(sim, spec=LINK_ON_CHIP):
    link = HalfLink(sim, spec, "test-link")
    link.sink = FakePort()
    return link


class TestTokenTiming:
    def test_symbol_timing_formula(self):
        """Ts=2, Tt=1 -> 8 cycles (500 Mbit/s at 500 MHz, paper SecV.C)."""
        assert symbol_timing_cycles(2, 1) == 8

    def test_invalid_symbol_timing(self):
        with pytest.raises(ValueError):
            symbol_timing_cycles(0, 1)
        with pytest.raises(ValueError):
            symbol_timing_cycles(2, -1)

    def test_token_time_from_bitrate(self):
        assert LINK_ON_CHIP.token_time_ps() == 16_000          # 500 Mbit/s
        assert LINK_ON_CHIP.token_time_ps(True) == 32_000      # 250 Mbit/s
        assert LINK_BOARD_VERTICAL.token_time_ps() == 64_000   # 125 Mbit/s

    def test_energy_per_bit_derivation(self):
        spec = LinkSpec("x", 100_000_000, 50_000_000, 5.0)
        assert spec.energy_per_bit_pj == pytest.approx(100.0)

    def test_delivery_takes_token_time(self):
        sim = Simulator()
        link = make_link(sim)
        link.send(data_token(0xAA))
        sim.run()
        assert sim.now == 16_000
        assert link.sink.tokens[0].value == 0xAA


class TestCredits:
    def test_initial_credits_match_buffer(self):
        assert make_link(Simulator()).credits == SWITCH_BUFFER_TOKENS

    def test_send_consumes_credit(self):
        sim = Simulator()
        link = make_link(sim)
        link.send(data_token(1))
        assert link.credits == SWITCH_BUFFER_TOKENS - 1

    def test_cannot_send_without_credit(self):
        sim = Simulator()
        link = make_link(sim)
        for i in range(SWITCH_BUFFER_TOKENS):
            link.send(data_token(i))
            sim.run()
        assert not link.can_send()
        with pytest.raises(SimulationError):
            link.send(data_token(99))

    def test_credit_return_reenables(self):
        sim = Simulator()
        link = make_link(sim)
        for i in range(SWITCH_BUFFER_TOKENS):
            link.send(data_token(i))
            sim.run()
        link.return_credit()
        assert link.can_send()

    def test_credit_return_pumps_holder(self):
        sim = Simulator()
        link = make_link(sim)
        holder = FakePort()
        link.seize(holder)
        link.return_credit()
        assert holder.pumps == 1

    def test_busy_while_serializing(self):
        sim = Simulator()
        link = make_link(sim)
        link.send(data_token(1))
        assert link.busy
        sim.run()
        assert not link.busy


class TestAllocation:
    def test_seize_release(self):
        link = make_link(Simulator())
        port = FakePort()
        assert link.free
        link.seize(port)
        assert not link.free
        link.release(port)
        assert link.free

    def test_double_seize_asserts(self):
        link = make_link(Simulator())
        link.seize(FakePort())
        with pytest.raises(SimulationError):
            link.seize(FakePort())

    def test_stats_accumulate(self):
        sim = Simulator()
        link = make_link(sim)
        for i in range(3):
            link.send(data_token(i))
            sim.run()
        assert link.tokens_carried == 3
        assert link.bits_carried == 24
        assert link.utilization(sim.now) == pytest.approx(1.0)

    def test_utilization_of_idle_span(self):
        sim = Simulator()
        link = make_link(sim)
        link.send(data_token(0))
        sim.run()
        sim.run_until(sim.now * 4)
        assert link.utilization(sim.now) == pytest.approx(0.25)


class TestDirectionGroup:
    def test_allocates_next_unused_link(self):
        """Paper SecV.B: 'a new communication will use the next unused link'."""
        sim = Simulator()
        group = DirectionGroup("I")
        links = [make_link(sim) for _ in range(4)]
        for link in links:
            group.add(link)
        ports = [FakePort() for _ in range(4)]
        granted = [group.try_allocate(p) for p in ports]
        assert granted == links  # in order, all distinct

    def test_exhausted_group_queues(self):
        sim = Simulator()
        group = DirectionGroup("E")
        group.add(make_link(sim))
        first, second = FakePort(), FakePort()
        assert group.try_allocate(first) is not None
        assert group.try_allocate(second) is None
        assert second in group.all_waiters

    def test_release_grants_to_waiter(self):
        sim = Simulator()
        group = DirectionGroup("E")
        link = make_link(sim)
        group.add(link)
        first, second = FakePort(), FakePort()
        group.try_allocate(first)
        group.try_allocate(second)
        group.release(link, first)
        assert link.holder is second
        assert second.granted == [link]

    def test_waiters_granted_fifo_per_lane(self):
        """A lane's queue is made on its first waiter, grants oldest
        first, survives ``forget`` of one port and goes once empty."""
        sim = Simulator()
        group = DirectionGroup("E")
        link = make_link(sim)
        group.add(link)
        holder = FakePort()
        group.try_allocate(holder)
        assert group.waiters == {}
        first, dropped, second = FakePort(), FakePort(), FakePort()
        for port in (first, dropped, second):
            assert group.try_allocate(port) is None
        assert list(group.waiters) == ["any"]
        group.forget(dropped)
        assert group.all_waiters == [first, second]
        group.release(link, holder)
        assert link.holder is first
        group.release(link, first)
        assert link.holder is second
        assert group.waiters == {}
        group.release(link, second)
        assert link.free and dropped.granted == []

    def test_no_duplicate_waiters(self):
        sim = Simulator()
        group = DirectionGroup("E")
        group.add(make_link(sim))
        group.try_allocate(FakePort())
        waiter = FakePort()
        group.try_allocate(waiter)
        group.try_allocate(waiter)
        assert group.all_waiters.count(waiter) == 1

    def test_lane_reservation(self):
        """Aggregated groups keep their last link for exit crossings."""
        sim = Simulator()
        group = DirectionGroup("I")
        links = [make_link(sim) for _ in range(4)]
        for link in links:
            group.add(link)
        entries = [FakePort() for _ in range(4)]
        granted = [group.try_allocate(p, lane="entry") for p in entries]
        assert granted[:3] == links[:3]
        assert granted[3] is None          # the escape link is off-limits
        exit_port = FakePort()
        assert group.try_allocate(exit_port, lane="exit") is links[3]

    def test_exit_release_goes_to_exit_waiter(self):
        sim = Simulator()
        group = DirectionGroup("I")
        links = [make_link(sim) for _ in range(4)]
        for link in links:
            group.add(link)
        holder = FakePort()
        group.try_allocate(holder, lane="exit")
        entry_waiter, exit_waiter = FakePort(), FakePort()
        for port in (FakePort(), FakePort(), FakePort()):
            group.try_allocate(port, lane="entry")
        group.try_allocate(entry_waiter, lane="entry")
        group.try_allocate(exit_waiter, lane="exit")
        group.release(links[3], holder)
        assert links[3].holder is exit_waiter

    def test_unknown_lane_rejected(self):
        group = DirectionGroup("I")
        group.add(make_link(Simulator()))
        group.add(make_link(Simulator()))
        with pytest.raises(ValueError, match="lane"):
            group.try_allocate(FakePort(), lane="bogus")
