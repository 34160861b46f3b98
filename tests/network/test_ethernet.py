"""Tests for the Ethernet bridge (§V.E)."""

import pytest

from repro.network.ethernet import ETHERNET_BITRATE, EthernetBridge
from repro.network.routing import Layer
from repro.network.token import CT_END
from repro.network.topology import SwallowTopology
from repro.sim import Simulator, ms
from repro.xs1 import (
    BehavioralThread,
    RecvWord,
    ResourceError,
    SendCt,
    SendWord,
    SetDest,
    XCore,
)


def build():
    sim = Simulator()
    topo = SwallowTopology(sim)
    bridge = EthernetBridge.attach(topo, column=0)
    return sim, topo, bridge


class TestAttachment:
    def test_bridge_is_addressable_node(self):
        sim, topo, bridge = build()
        assert bridge.node_id in topo.fabric.coords
        assert bridge.node_id not in topo.node_ids()  # beyond the core grid

    def test_bad_column_rejected(self):
        sim = Simulator()
        topo = SwallowTopology(sim)
        with pytest.raises(ValueError):
            EthernetBridge.attach(topo, column=99)

    def test_two_bridges_per_slice(self):
        sim = Simulator()
        topo = SwallowTopology(sim)
        b0 = EthernetBridge.attach(topo, column=0)
        b1 = EthernetBridge.attach(topo, column=3)
        assert b0.node_id != b1.node_id

    def test_bridge_owns_its_node(self):
        _, topo, bridge = build()
        for index in range(8):
            chanend = bridge.chanend(index)
            assert chanend.allocated
            assert topo.fabric.local_chanend(bridge.endpoint(index)) is chanend

    @pytest.mark.parametrize("index", [-1, -8, 8])
    def test_chanend_index_outside_the_bridge_raises(self, index):
        _, _, bridge = build()
        message = f"{bridge.name}: no chanend {index}$"
        with pytest.raises(ResourceError, match=message):
            bridge.chanend(index)
        with pytest.raises(ResourceError, match=message):
            bridge.endpoint(index)


class TestEgress:
    def test_core_streams_words_to_host(self):
        sim, topo, bridge = build()
        node = topo.node_at(0, 0, Layer.VERTICAL)
        core = XCore(sim, node, topo.fabric)
        tx = core.allocate_chanend()

        def streamer():
            yield SetDest(tx, bridge.endpoint(0))
            for i in range(5):
                yield SendWord(tx, 100 + i)
            yield SendCt(tx, CT_END)

        BehavioralThread(core, streamer())
        sim.run()
        received = bridge.host_receive()
        assert [w.value for w in received] == [100, 101, 102, 103, 104]
        assert bridge.bits_out == 5 * 32

    def test_host_receive_drains_queue(self):
        sim, topo, bridge = build()
        node = topo.node_at(0, 0, Layer.VERTICAL)
        core = XCore(sim, node, topo.fabric)
        tx = core.allocate_chanend()

        def streamer():
            yield SetDest(tx, bridge.endpoint(0))
            yield SendWord(tx, 7)
            yield SendCt(tx, CT_END)

        BehavioralThread(core, streamer())
        sim.run()
        assert len(bridge.host_receive()) == 1
        assert bridge.host_receive() == []


class TestIngress:
    def test_host_sends_words_to_core(self):
        sim, topo, bridge = build()
        node = topo.node_at(1, 0, Layer.HORIZONTAL)
        core = XCore(sim, node, topo.fabric)
        rx = core.allocate_chanend()
        got = []

        def receiver():
            for _ in range(3):
                got.append((yield RecvWord(rx)))

        BehavioralThread(core, receiver())
        bridge.host_send_words(rx.address, [11, 22, 33])
        sim.run()
        assert got == [11, 22, 33]
        assert bridge.bits_in == 96

    def test_ingress_paced_at_ethernet_rate(self):
        sim, topo, bridge = build()
        node = topo.node_at(0, 0, Layer.VERTICAL)
        core = XCore(sim, node, topo.fabric)
        rx = core.allocate_chanend()
        count = 100
        got = []

        def receiver():
            for _ in range(count):
                got.append((yield RecvWord(rx)))

        BehavioralThread(core, receiver())
        bridge.host_send_words(rx.address, list(range(count)))
        sim.run()
        assert len(got) == count
        # 99 inter-word gaps x 32 bits at 80 Mbit/s = 39.6 us minimum.
        assert sim.now >= 39_600_000

    def test_transfer_time_helper(self):
        _, _, bridge = build()
        assert bridge.transfer_time_s(ETHERNET_BITRATE) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            bridge.transfer_time_s(-1)
