"""End-to-end tests of the switched network fabric."""

import pytest

from repro.network.header import ChanendAddress
from repro.network.routing import Layer, RoutingError
from repro.network.token import CT_END
from repro.sim import to_ns
from repro.xs1 import (
    BehavioralThread,
    CheckCt,
    RecvWord,
    SendCt,
    SendWord,
    SetDest,
    XCore,
)


def send_words(chanend, words, close=True):
    def body():
        for word in words:
            yield SendWord(chanend, word)
        if close:
            yield SendCt(chanend, CT_END)
    return body()


def recv_words(chanend, count, out, expect_end=True):
    def body():
        for _ in range(count):
            word = yield RecvWord(chanend)
            out.append(word)
        if expect_end:
            yield CheckCt(chanend, CT_END)
    return body()


class TestBasicTransfers:
    def test_in_package_word_transfer(self, rig):
        """Between the two nodes of one package (4 on-chip links)."""
        v = rig.topology.node_at(0, 0, Layer.VERTICAL)
        h = rig.topology.node_at(0, 0, Layer.HORIZONTAL)
        tx, rx = rig.channel(v, h)
        got = []
        BehavioralThread(rig.core(v), send_words(tx, [0xAA55AA55]))
        BehavioralThread(rig.core(h), recv_words(rx, 1, got))
        rig.sim.run()
        assert got == [0xAA55AA55]

    def test_cross_package_transfer(self, rig):
        """Across an on-board link between adjacent packages."""
        a = rig.topology.node_at(0, 0, Layer.VERTICAL)
        b = rig.topology.node_at(0, 1, Layer.VERTICAL)
        tx, rx = rig.channel(a, b)
        got = []
        BehavioralThread(rig.core(a), send_words(tx, [1, 2, 3]))
        BehavioralThread(rig.core(b), recv_words(rx, 3, got))
        rig.sim.run()
        assert got == [1, 2, 3]

    def test_multi_hop_with_layer_changes(self, rig):
        """Corner-to-corner: crosses layers and both dimensions."""
        src = rig.topology.node_at(0, 0, Layer.HORIZONTAL)
        dst = rig.topology.node_at(3, 1, Layer.HORIZONTAL)
        tx, rx = rig.channel(src, dst)
        got = []
        BehavioralThread(rig.core(src), send_words(tx, [7, 8]))
        BehavioralThread(rig.core(dst), recv_words(rx, 2, got))
        rig.sim.run()
        assert got == [7, 8]

    def test_core_local_via_switch_loopback(self, rig):
        """Same-node chanends route through the local switch."""
        node = rig.topology.node_at(1, 0, Layer.VERTICAL)
        tx, rx = rig.channel(node, node)
        got = []
        BehavioralThread(rig.core(node), send_words(tx, [42]))
        BehavioralThread(rig.core(node), recv_words(rx, 1, got))
        rig.sim.run()
        assert got == [42]

    def test_cross_slice_over_ffc(self, make_rig):
        rig = make_rig(slices_x=2)
        src = rig.topology.node_at(0, 0, Layer.HORIZONTAL)
        dst = rig.topology.node_at(7, 0, Layer.HORIZONTAL)
        tx, rx = rig.channel(src, dst)
        got = []
        BehavioralThread(rig.core(src), send_words(tx, [0xF00D]))
        BehavioralThread(rig.core(dst), recv_words(rx, 1, got))
        rig.sim.run()
        assert got == [0xF00D]
        stats = rig.fabric.link_stats_by_class()
        assert stats["off-board-ffc"]["tokens"] > 0

    def test_bidirectional_pingpong(self, rig):
        a = rig.topology.node_at(0, 0, Layer.VERTICAL)
        b = rig.topology.node_at(2, 1, Layer.HORIZONTAL)
        tx, rx = rig.channel(a, b)
        rounds, log = 10, []

        def ping():
            for i in range(rounds):
                yield SendWord(tx, i)
                log.append((yield RecvWord(tx)))

        def pong():
            for _ in range(rounds):
                value = yield RecvWord(rx)
                yield SendWord(rx, value * 2)

        BehavioralThread(rig.core(a), ping())
        BehavioralThread(rig.core(b), pong())
        rig.sim.run()
        assert log == [2 * i for i in range(rounds)]


class TestLatencyShape:
    """The paper's §V.C ordering: local < in-package < cross-package."""

    def _transfer_time(self, rig, src, dst):
        tx, rx = rig.channel(src, dst)
        got = []
        start = rig.sim.now
        BehavioralThread(rig.core(src), send_words(tx, [1], close=False))
        BehavioralThread(rig.core(dst), recv_words(rx, 1, got, expect_end=False))
        rig.sim.run()
        assert got == [1]
        return rig.sim.now - start

    def test_latency_ordering(self, make_rig):
        local = self._transfer_time(
            make_rig(), 0, 0
        )
        rig2 = make_rig()
        in_package = self._transfer_time(
            rig2,
            rig2.topology.node_at(0, 0, Layer.VERTICAL),
            rig2.topology.node_at(0, 0, Layer.HORIZONTAL),
        )
        rig3 = make_rig()
        cross_package = self._transfer_time(
            rig3,
            rig3.topology.node_at(0, 0, Layer.VERTICAL),
            rig3.topology.node_at(0, 1, Layer.VERTICAL),
        )
        assert local < in_package < cross_package

    def test_cross_package_word_latency_near_paper(self, make_rig):
        """Paper: 360 ns for a 32-bit word between packages (shape match)."""
        rig = make_rig()
        elapsed = self._transfer_time(
            rig,
            rig.topology.node_at(0, 0, Layer.VERTICAL),
            rig.topology.node_at(0, 1, Layer.VERTICAL),
        )
        assert 200 <= to_ns(elapsed) <= 700


class TestRouteLifecycle:
    def test_end_token_closes_routes(self, rig):
        a = rig.topology.node_at(0, 0, Layer.VERTICAL)
        b = rig.topology.node_at(1, 1, Layer.HORIZONTAL)
        tx, rx = rig.channel(a, b)
        got = []
        BehavioralThread(rig.core(a), send_words(tx, [5]))
        BehavioralThread(rig.core(b), recv_words(rx, 1, got))
        rig.sim.run()
        assert rig.fabric.total_routes_open == 0

    def test_unclosed_route_stays_open(self, rig):
        a = rig.topology.node_at(0, 0, Layer.VERTICAL)
        b = rig.topology.node_at(1, 1, Layer.HORIZONTAL)
        tx, rx = rig.channel(a, b)
        got = []
        BehavioralThread(rig.core(a), send_words(tx, [5], close=False))
        BehavioralThread(rig.core(b), recv_words(rx, 1, got, expect_end=False))
        rig.sim.run()
        assert got == [5]
        assert rig.fabric.total_routes_open > 0

    def test_sequential_messages_reuse_link(self, rig):
        a = rig.topology.node_at(0, 0, Layer.VERTICAL)
        b = rig.topology.node_at(0, 1, Layer.VERTICAL)
        tx, rx = rig.channel(a, b)
        got = []

        def sender():
            for i in range(3):
                yield SendWord(tx, i)
                yield SendCt(tx, CT_END)   # close and reopen each time

        def receiver():
            for _ in range(3):
                got.append((yield RecvWord(rx)))
                yield CheckCt(rx, CT_END)

        BehavioralThread(rig.core(a), sender())
        BehavioralThread(rig.core(b), receiver())
        rig.sim.run()
        assert got == [0, 1, 2]
        assert rig.fabric.total_routes_open == 0


class TestContention:
    def test_two_streams_share_aggregated_internal_links(self, rig):
        """In-package has 4 links: two circuits proceed concurrently."""
        v = rig.topology.node_at(0, 0, Layer.VERTICAL)
        h = rig.topology.node_at(0, 0, Layer.HORIZONTAL)
        results = {1: [], 2: []}
        for stream in (1, 2):
            tx, rx = rig.channel(v, h)
            BehavioralThread(
                rig.core(v), send_words(tx, [stream] * 5, close=False)
            )
            BehavioralThread(
                rig.core(h), recv_words(rx, 5, results[stream], expect_end=False)
            )
        rig.sim.run()
        assert results[1] == [1] * 5
        assert results[2] == [2] * 5

    def test_circuit_blocks_competitor_on_single_external_link(self, rig):
        """One external link: a held-open circuit serializes a competitor."""
        a = rig.topology.node_at(0, 0, Layer.VERTICAL)
        b = rig.topology.node_at(0, 1, Layer.VERTICAL)
        slow_got, fast_got = [], []
        tx1, rx1 = rig.channel(a, b)
        tx2, rx2 = rig.channel(a, b)

        def circuit_holder():
            for i in range(4):
                yield SendWord(tx1, i)
            # no END: route held open
        def competitor():
            yield SendWord(tx2, 99)
            yield SendCt(tx2, CT_END)

        BehavioralThread(rig.core(a), circuit_holder())
        BehavioralThread(rig.core(a), competitor())
        BehavioralThread(rig.core(b), recv_words(rx1, 4, slow_got, expect_end=False))
        receiver2 = BehavioralThread(
            rig.core(b), recv_words(rx2, 1, fast_got)
        )
        rig.sim.run()
        assert slow_got == [0, 1, 2, 3]
        assert fast_got == []            # starved: the circuit never closed
        assert not receiver2.halted

    def test_backpressure_reaches_remote_sender(self, rig):
        """An unread receiver eventually pauses a remote sender."""
        a = rig.topology.node_at(0, 0, Layer.VERTICAL)
        b = rig.topology.node_at(0, 1, Layer.VERTICAL)
        tx, rx = rig.channel(a, b)

        def flood():
            for i in range(100):
                yield SendWord(tx, i)

        sender = BehavioralThread(rig.core(a), flood())
        # No receiver thread at all.
        rig.sim.run()
        assert not sender.halted
        assert sender.pause_reason is not None


class TestDeterminism:
    def test_identical_runs_produce_identical_timing(self, make_rig):
        def run_once():
            rig = make_rig()
            a = rig.topology.node_at(0, 0, Layer.HORIZONTAL)
            b = rig.topology.node_at(3, 1, Layer.VERTICAL)
            tx, rx = rig.channel(a, b)
            got = []
            BehavioralThread(rig.core(a), send_words(tx, list(range(20))))
            BehavioralThread(rig.core(b), recv_words(rx, 20, got))
            rig.sim.run()
            return rig.sim.now, tuple(got), rig.sim.events_processed

        assert run_once() == run_once()


class TestChanendOwners:
    """The fabric finds a node's chanends through the core that owns them."""

    def test_token_to_untouched_chanend_lands_in_its_rx(self, rig):
        a = rig.topology.node_at(0, 0, Layer.VERTICAL)
        b = rig.topology.node_at(1, 1, Layer.HORIZONTAL)
        receiver = rig.core(b)
        assert receiver._chanends[5] is None   # nothing on b touched it
        tx = rig.core(a).allocate_chanend()

        def sender():
            yield SetDest(tx, ChanendAddress(b, 5))
            yield SendWord(tx, 0x01020304)
            yield SendCt(tx, CT_END)

        BehavioralThread(rig.core(a), sender())
        rig.sim.run()
        rx = receiver.chanend(5)
        assert [token.value for token in rx.rx] == [1, 2, 3, 4, CT_END]
        assert rx.rx[-1].is_end
        assert rx.tokens_received == 5

    def test_local_chanend_is_the_cores_own(self, rig):
        node = rig.topology.node_at(2, 0, Layer.VERTICAL)
        core = rig.core(node)
        address = ChanendAddress(node, 7)
        assert rig.fabric.local_chanend(address) is core.chanend(7)
        assert core.chanend(7).address == address

    def test_index_outside_the_pool_raises(self, rig):
        node = rig.topology.node_at(0, 0, Layer.VERTICAL)
        rig.core(node)
        with pytest.raises(RoutingError, match="no chanend"):
            rig.fabric.local_chanend(ChanendAddress(node, 32))

    def test_node_without_a_core_raises(self, rig):
        node = rig.topology.node_at(0, 0, Layer.VERTICAL)
        with pytest.raises(RoutingError, match="no chanend"):
            rig.fabric.local_chanend(ChanendAddress(node, 0))

    def test_core_on_a_node_outside_the_fabric_rejected(self, rig):
        with pytest.raises(RoutingError, match="not in fabric"):
            XCore(rig.sim, 999, rig.fabric)
