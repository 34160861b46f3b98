"""Ethernet bridge module (paper §V.E).

The bridge "attaches to the Swallow network and is addressable as a node
in the network, but forwards all data to and from an Ethernet interface".
It is how programs are loaded and data streamed in/out; each bridge
sustains up to 80 Mbit/s of full-duplex transfer, and a slice can host up
to two of them on its south external links.

The bridge owns a node (with a switch) attached below a bottom-row
vertical-layer node; words delivered to its channel ends surface in a
host-visible queue, and the host can inject words toward any channel end
in the machine, both paced at the Ethernet rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.network.header import ChanendAddress
from repro.network.params import LINK_BOARD_VERTICAL
from repro.network.routing import Direction, Layer, NodeCoord
from repro.network.token import CT_END, control_token, word_to_tokens
from repro.network.topology import SLICE_PACKAGES_X, SwallowTopology
from repro.sim import PS_PER_S
from repro.xs1.chanend import Chanend
from repro.xs1.errors import ResourceError

#: Full-duplex data rate of one bridge (paper: 80 Mbit/s).
ETHERNET_BITRATE = 80_000_000

#: Bridges a slice can host (paper: two, on the south links).
BRIDGES_PER_SLICE = 2


@dataclass
class ReceivedWord:
    """One word that crossed the bridge toward the host."""

    time_ps: int
    chanend_index: int
    value: int


class EthernetBridge:
    """A bridge node attached to a Swallow topology.

    Use :meth:`attach` to create one.  ``host_receive`` drains words the
    network sent to the bridge; :meth:`host_send_words` streams words into
    the machine at the Ethernet rate.  The bridge owns its node's eight
    channel ends, all allocated, and stands where a core would: it is
    their ``core`` (it runs no threads) and the fabric's owner of the node.
    """

    def __init__(self, topology: SwallowTopology, node_id: int, column: int):
        self.topology = topology
        self.sim = topology.sim
        self.fabric = topology.fabric
        self.node_id = node_id
        self.column = column
        self.name = f"ethbridge{node_id}"
        self._chanends = [Chanend(self, i) for i in range(8)]
        for chanend in self._chanends:
            chanend.allocated = True
        self.fabric.attach_owner(self)
        self._host_queue: deque[ReceivedWord] = deque()
        self._egress_busy_until = 0
        self._ingress_busy_until = 0
        self.bits_in = 0
        self.bits_out = 0
        for chanend in self._chanends:
            chanend.on_deliver = self._on_deliver

    # -- construction -----------------------------------------------------------

    @classmethod
    def attach(cls, topology: SwallowTopology, column: int = 0) -> "EthernetBridge":
        """Attach a bridge below the bottom-row vertical node of ``column``.

        The bridge becomes a new network node one row south of the grid,
        linked by an on-board-class link (it sits on the slice PCB).
        """
        if not 0 <= column < topology.packages_x:
            raise ValueError(f"column {column} outside grid of {topology.packages_x}")
        bottom_y = topology.packages_y - 1
        anchor = topology.node_at(column, bottom_y, Layer.VERTICAL)
        node_id = max(topology.fabric.coords) + 1
        coord = NodeCoord(column, bottom_y + 1, Layer.VERTICAL)
        topology.fabric.add_node(node_id, coord)
        topology.fabric.connect(
            anchor, Direction.SOUTH, node_id, Direction.NORTH, LINK_BOARD_VERTICAL
        )
        topology.fabric.register_leaf(
            node_id, anchor, from_anchor=Direction.SOUTH, to_anchor=Direction.NORTH
        )
        return cls(topology, node_id, column)

    # -- network-facing addresses ---------------------------------------------

    def chanend(self, index: int) -> Chanend:
        """The bridge's channel end ``index``."""
        if not 0 <= index < len(self._chanends):
            raise ResourceError(f"{self.name}: no chanend {index}")
        return self._chanends[index]

    def endpoint(self, index: int = 0) -> ChanendAddress:
        """Address programs should ``setd`` to reach the host."""
        return self.chanend(index).address

    # -- egress: network -> host -------------------------------------------------

    def _on_deliver(self, chanend: Chanend) -> None:
        """A token reached the bridge; schedule a paced egress drain."""
        word_time = round(PS_PER_S / ETHERNET_BITRATE * 32)
        at = max(self.sim.now, self._egress_busy_until)
        self._egress_busy_until = at + word_time
        self.sim.schedule_at(
            self._egress_busy_until, lambda: self._drain_chanend(chanend)
        )

    def _drain_chanend(self, chanend: Chanend) -> None:
        # Discard route-closing control tokens.
        while chanend.rx_available() and chanend.rx[0].is_control:
            chanend.pop_rx()
        while chanend.rx_available() >= 4:
            if any(chanend.rx[i].is_control for i in range(4)):
                break
            value = 0
            for _ in range(4):
                value = (value << 8) | chanend.pop_rx().value
            self._host_queue.append(
                ReceivedWord(self.sim.now, chanend.index, value)
            )
            self.bits_out += 32
        while chanend.rx_available() and chanend.rx[0].is_control:
            chanend.pop_rx()

    def host_receive(self) -> list[ReceivedWord]:
        """Take everything that has crossed to the host so far."""
        items = list(self._host_queue)
        self._host_queue.clear()
        return items

    # -- ingress: host -> network --------------------------------------------------

    def host_send_words(
        self,
        dest: ChanendAddress,
        words: list[int],
        source_index: int = 0,
        close: bool = True,
    ) -> int:
        """Stream ``words`` to ``dest``, paced at the Ethernet rate.

        Returns the simulation time (ps) at which the last word enters
        the network side of the bridge.
        """
        chanend = self.chanend(source_index)
        word_time = round(PS_PER_S / ETHERNET_BITRATE * 32)
        start = max(self.sim.now, self._ingress_busy_until)
        at = start

        def make_push(value, set_dest_first, close_after):
            def push():
                if set_dest_first:
                    chanend.set_dest(dest)
                tokens = word_to_tokens(value)
                if close_after:
                    tokens = tokens + [control_token(CT_END)]
                chanend.push_tx(tokens)

            return push

        for position, word in enumerate(words):
            at = start + position * word_time
            self.sim.schedule_at(
                at,
                make_push(
                    word,
                    set_dest_first=(position == 0),
                    close_after=(close and position == len(words) - 1),
                ),
            )
            self.bits_in += 32
        self._ingress_busy_until = at + word_time
        return self._ingress_busy_until

    def transfer_time_s(self, payload_bits: int) -> float:
        """Time for ``payload_bits`` to cross the bridge at 80 Mbit/s."""
        if payload_bits < 0:
            raise ValueError("bit count must be non-negative")
        return payload_bits / ETHERNET_BITRATE
