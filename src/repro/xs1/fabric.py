"""Fabric interface between cores and the interconnect.

Cores hand tokens to a *fabric*; the fabric carries them to the
destination channel end with whatever timing and contention its
implementation models.  Two implementations exist:

* :class:`LoopbackFabric` (here) — connects channel ends on the same
  fabric directly with a fixed small latency.  It serves single-core and
  single-node tests and models the core-local case of the paper's §V.D
  ("Core-local communication can sustain this data rate").
* :class:`repro.network.fabric.SwallowFabric` — the full token-level
  switch/link network with wormhole routing and credit flow control.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Protocol

from repro.network.header import ChanendAddress
from repro.sim import Frequency, Simulator
from repro.xs1.errors import ResourceError

if TYPE_CHECKING:
    from repro.xs1.chanend import Chanend


class ChanendOwner(Protocol):
    """What holds a node's channel ends: its core, or an Ethernet bridge."""

    node_id: int

    def chanend(self, index: int) -> "Chanend":
        """Channel end ``index``; :class:`ResourceError` outside the pool."""


class Fabric(Protocol):
    """What a core requires of its interconnect."""

    def attach_owner(self, owner: ChanendOwner) -> None:
        """Make ``owner``'s channel ends addressable on its node."""

    def notify_tx(self, chanend: "Chanend") -> None:
        """``chanend`` has tokens queued for transmission."""

    def notify_rx_space(self, chanend: "Chanend") -> None:
        """``chanend`` freed receive-buffer space (backpressure release)."""


def resolve_chanend(
    owners: dict[int, ChanendOwner], address: ChanendAddress
) -> "Chanend | None":
    """The channel end at ``address``, through the owner of its node.

    None when no owner holds the node or the index is outside its pool.
    The owner makes a channel end nothing has touched yet, so a token
    sent there still lands in its receive buffer.
    """
    owner = owners.get(address.node)
    if owner is None:
        return None
    try:
        return owner.chanend(address.index)
    except ResourceError:
        return None


class LoopbackFabric:
    """Direct chanend-to-chanend delivery with a fixed per-token latency.

    Models only the core-local path: one token moves from a transmit
    buffer to the destination's receive buffer every ``cycles_per_token``
    cycles of ``frequency``.  Destinations must be on cores built against
    this fabric.
    """

    def __init__(
        self,
        sim: Simulator,
        frequency: Frequency | None = None,
        cycles_per_token: int = 1,
    ):
        self.sim = sim
        self.frequency = frequency or Frequency(500_000_000)
        self.cycles_per_token = cycles_per_token
        self._owners: dict[int, ChanendOwner] = {}
        self._active: deque["Chanend"] = deque()
        self._blocked: list["Chanend"] = []
        self._draining = False
        self.tokens_moved = 0

    def attach_owner(self, owner: ChanendOwner) -> None:
        """Make ``owner``'s channel ends destinations for local delivery."""
        self._owners[owner.node_id] = owner

    def notify_tx(self, chanend: "Chanend") -> None:
        """Queue the chanend for draining."""
        if chanend not in self._active:
            self._active.append(chanend)
        self._schedule_drain()

    def notify_rx_space(self, chanend: "Chanend") -> None:
        """Retry senders that were blocked on a full receive buffer."""
        if self._blocked:
            for src in self._blocked:
                if src not in self._active:
                    self._active.append(src)
            self._blocked.clear()
            self._schedule_drain()

    def _schedule_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        delay = self.frequency.cycles_to_ps(self.cycles_per_token)
        self.sim.schedule(delay, self._drain)

    def _drain(self) -> None:
        self._draining = False
        # Move one token from each active chanend per drain tick.
        for _ in range(len(self._active)):
            src = self._active.popleft()
            if src.peek_tx() is None:
                continue
            if src.dest is None:
                raise ResourceError(f"{src.address}: token without destination")
            dest = resolve_chanend(self._owners, src.dest)
            if dest is None:
                raise ResourceError(
                    f"{src.address}: destination {src.dest} not attached to "
                    "loopback fabric (use the network fabric for off-core sends)"
                )
            if dest.rx_space() <= 0:
                # Leave the token queued; retry when the receiver drains
                # (notify_rx_space) so backpressure reaches the sender.
                self._blocked.append(src)
                continue
            dest.deliver(src.pull_tx())
            self.tokens_moved += 1
            if src.peek_tx() is not None:
                self._active.append(src)
        if self._active:
            self._schedule_drain()
