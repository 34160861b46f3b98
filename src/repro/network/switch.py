"""Per-node switch with wormhole routing.

Every XS1-L core has one switch (paper §IV-D).  A switch owns:

* one :class:`InputPort` per incoming half-link (buffered, credit-backed);
* one :class:`ChanendPort` per local channel end that transmits (tokens are
  pulled straight from the chanend's transmit buffer, with the paper's
  three-cycle core-to-network injection latency);
* a :class:`~repro.network.link.DirectionGroup` per outgoing direction.

A route opens when a port sees a three-token header: the destination is
decoded, the next hop chosen by the routing policy, and an output link
seized (or queued for).  The header is forwarded hop by hop and consumed
at the destination switch, which delivers payload tokens into the target
chanend's receive buffer.  The END control token closes the route at each
hop as it passes; without it the route stays open — a circuit (§V.B).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.network.header import ChanendAddress
from repro.network.link import DirectionGroup, HalfLink
from repro.network.params import (
    INJECTION_LATENCY_CYCLES,
    LOCAL_DELIVERY_CYCLES_PER_TOKEN,
    SWITCH_BUFFER_TOKENS,
)
from repro.network.routing import Direction, NodeCoord, RoutingError
from repro.network.token import HEADER_TOKENS, Token
from repro.sim import Frequency, SimulationError, Simulator

if TYPE_CHECKING:
    from repro.network.fabric import SwallowFabric
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.netscope import PortProbe
    from repro.xs1.chanend import Chanend


class RouteState:
    """An open route through one port."""

    __slots__ = ("dest", "direction", "link", "local_target", "header_to_send",
                 "opened_ps")

    def __init__(
        self,
        dest: ChanendAddress,
        direction: Direction,
        link: HalfLink | None,
        local_target: "Chanend | None",
        header_to_send: list[Token],
        opened_ps: int = 0,
    ):
        self.dest = dest
        self.direction = direction
        self.link = link
        self.local_target = local_target
        self.header_to_send = header_to_send
        self.opened_ps = opened_ps


class InputPort:
    """A buffered token source feeding the switch's routing engine."""

    def __init__(self, switch: "Switch", name: str, upstream: HalfLink | None = None):
        self.switch = switch
        self.name = name
        self.upstream = upstream
        self.buffer: deque[Token] = deque()
        self.capacity = SWITCH_BUFFER_TOKENS
        self.route: RouteState | None = None
        self._header: list[Token] = []
        self._pump_pending = False
        self.routes_opened = 0
        #: Per-port shares of the switch-level severed/discard counters,
        #: so fault damage is attributable to the port it hit.
        self.routes_severed = 0
        self.tokens_discarded = 0
        #: True while discarding the rest of a severed route's packet
        #: (set when the route's output link died mid-run).
        self._discarding = False
        #: Optional netscope probe (see :mod:`repro.obs.netscope`).
        self.ns: "PortProbe | None" = None

    # -- token intake --------------------------------------------------------

    def accept(self, token: Token) -> None:
        """A token arrived from the upstream link."""
        if len(self.buffer) >= self.capacity:
            raise SimulationError(f"{self.name}: buffer overrun")
        self.buffer.append(token)
        if self.ns is not None:
            self.ns.on_depth(self.switch.sim.now, len(self.buffer))
        self.pump()

    # -- token source abstraction (overridden by ChanendPort) ----------------

    def _peek(self) -> Token | None:
        return self.buffer[0] if self.buffer else None

    def _consume(self) -> Token:
        token = self.buffer.popleft()
        if self.upstream is not None:
            self.upstream.return_credit()
        return token

    def _open_route_header(self) -> list[Token] | None:
        """Collect the 3-token header from the stream; None until complete."""
        while len(self._header) < HEADER_TOKENS:
            token = self._peek()
            if token is None:
                return None
            if token.is_control:
                raise RoutingError(f"{self.name}: control token {token} in header")
            self._header.append(self._consume())
        header, self._header = self._header, []
        return header

    # -- routing engine --------------------------------------------------------

    def pump(self) -> None:
        """Run the forwarding engine after the events already due now
        (coalesced within one event), as a ``call_soon`` run."""
        if self._pump_pending:
            return
        self._pump_pending = True
        self.switch.sim.call_soon(self._run)

    def granted_link(self, link: HalfLink) -> None:
        """A queued allocation was granted by a closing route."""
        if self.route is not None and self.route.link is None:
            self.route.link = link
        if self.ns is not None:
            self.ns.unblock(self.switch.sim.now)
        self.pump()

    def _run(self) -> None:
        self._pump_pending = False
        if self._discarding:
            self._drain_discard()
            return
        if self.route is None and not self._try_open_route():
            return
        route = self.route
        if route is None:
            return
        if route.local_target is not None:
            self._deliver_local(route)
        elif route.link is not None:
            self._forward(route)
        # else: waiting for link allocation; granted_link() will resume us.

    # -- mid-run failure handling (see repro.faults) --------------------------

    def sever_route(self) -> None:
        """The route's output link died mid-run (upstream side).

        The rest of the current packet — everything up to and including
        its closing END token — still arrives from upstream and is
        discarded; the END then closes the route normally (the dead link
        is released but never re-granted).  The next packet opens a
        fresh route against the healed routing tables.
        """
        route = self.route
        if route is None or self._discarding:
            return
        route.header_to_send.clear()   # never launched; nothing to flush
        self._discarding = True
        self.switch.routes_severed += 1
        self.routes_severed += 1
        if self.ns is not None:
            self.ns.block("severed", self.switch.sim.now)
        tracer = self.switch.sim.tracer
        if tracer is not None:
            tracer.record(self.switch.sim.now, self.switch.name,
                          "route_severed", self.name, str(route.dest))
        self.pump()

    def _drain_discard(self) -> None:
        while True:
            token = self._peek()
            if token is None:
                return                  # more of the packet arrives later
            self._consume()
            self.switch.tokens_discarded += 1
            self.tokens_discarded += 1
            if token.is_end:
                self._discarding = False
                if self.ns is not None:
                    self.ns.unblock(self.switch.sim.now)
                if self.route is not None:
                    self._close_route(self.route)
                return

    def flush_stale(self) -> None:
        """This port's upstream link died: discard the orphaned route.

        Called on the *downstream* side of a forced link failure and
        recursively along the rest of the severed route's path: buffered
        and in-flight tokens are dropped immediately (no END will ever
        arrive from across the dead link), held output links are
        released to their waiters, and queued allocations are withdrawn.
        """
        self._header.clear()
        self._discarding = False
        if self.ns is not None:
            self.ns.unblock(self.switch.sim.now)
        while self._peek() is not None:
            self._consume()
            self.switch.tokens_discarded += 1
            self.tokens_discarded += 1
        route, self.route = self.route, None
        if route is None:
            return
        self.switch.routes_severed += 1
        self.routes_severed += 1
        tracer = self.switch.sim.tracer
        if tracer is not None:
            tracer.record(self.switch.sim.now, self.switch.name,
                          "route_severed", self.name, str(route.dest))
        if route.local_target is not None:
            return
        link = route.link
        if link is None:
            self.switch.groups[route.direction].forget(self)
            return
        link.abort_inflight()
        if link.sink is not None:
            link.sink.flush_stale()    # walk the rest of the route
        self.switch.groups[route.direction].release(link, self)

    def _try_open_route(self) -> bool:
        header = self._open_route_header()
        if header is None:
            return False
        dest = ChanendAddress.from_header(header)
        switch = self.switch
        self.routes_opened += 1
        tracer = switch.sim.tracer
        if tracer is not None:
            tracer.record(switch.sim.now, switch.name, "route_open",
                          self.name, str(dest))
        now = switch.sim.now
        if dest.node == switch.node_id:
            target = switch.fabric.local_chanend(dest)
            self.route = RouteState(dest, Direction.LOCAL, None, target, [],
                                    opened_ps=now)
            return True
        direction = switch.route_policy(dest.node)
        group = switch.groups.get(direction)
        if group is None or not group.links:
            raise RoutingError(
                f"{switch.name}: no {direction.value} links toward node {dest.node}"
            )
        link = group.try_allocate(self, lane=self._crossing_lane(direction, dest))
        if link is None and self.ns is not None:
            self.ns.block("lane_busy", now)
        self.route = RouteState(dest, direction, link, None, list(header),
                                opened_ps=now)
        return True

    def _crossing_lane(self, direction: Direction, dest: ChanendAddress) -> str:
        """Allocation lane for a new route (see DirectionGroup lanes).

        Internal (layer-crossing) hops are classed as *exit* (the final
        hop of a multi-hop route arriving at the destination package —
        routed over the dedicated escape link), *direct* (a single-hop
        in-package message injected by a local chanend — aggregated over
        the other three links, the paper's channel-switching set), or
        *entry* (a transit crossing mid-route, also kept off the escape
        link).  Compass directions use the whole group.
        """
        if direction is not Direction.INTERNAL:
            return "any"
        switch = self.switch
        dest_coord = switch.fabric.coords.get(dest.node)
        arriving = (
            dest_coord is not None
            and (dest_coord.x, dest_coord.y) == (switch.coord.x, switch.coord.y)
        )
        if not arriving:
            return "entry"
        return "direct" if isinstance(self, ChanendPort) else "exit"

    def _forward(self, route: RouteState) -> None:
        link = route.link
        if link is None:
            raise SimulationError(f"{self.name}: forwarding on a route with no link")
        if not link.can_send():
            # A held link that is idle yet unsendable is out of credits:
            # the far buffer is full and backpressure reaches this port.
            # (A busy link is actively serializing — that is progress,
            # not a stall.)
            if self.ns is not None and not link.busy and link.credits == 0:
                self.ns.block("credit_stall", self.switch.sim.now)
            return  # resumed by the link's delivery/credit callbacks
        if self.ns is not None and self.ns.blocked_cause is not None:
            self.ns.unblock(self.switch.sim.now)
        if route.header_to_send:
            link.send(route.header_to_send.pop(0))
            self.switch.tokens_forwarded += 1
            return
        token = self._peek()
        if token is None:
            return  # more payload may arrive later
        self._consume()
        link.send(token)
        self.switch.tokens_forwarded += 1
        if token.is_end:
            self._close_route(route)

    def _deliver_local(self, route: RouteState) -> None:
        target = route.local_target
        if target is None:
            raise SimulationError(f"{self.name}: local delivery with no target chanend")
        token = self._peek()
        if token is None:
            return
        if not target.deliver(token):
            if self.ns is not None:
                self.ns.block("dest_busy", self.switch.sim.now)
            self.switch.fabric.block_on_rx(target, self)
            return
        if self.ns is not None and self.ns.blocked_cause is not None:
            self.ns.unblock(self.switch.sim.now)
        self._consume()
        self.switch.tokens_delivered += 1
        tracer = self.switch.sim.tracer
        if tracer is not None:
            tracer.record(self.switch.sim.now, self.switch.name, "deliver",
                          str(route.dest), str(token))
        if token.is_end:
            self._close_route(route)
        elif not self._pump_pending:
            # Core-interface pacing: one token per core cycle.
            self._pump_pending = True
            delay = self.switch.frequency.cycles_to_ps(LOCAL_DELIVERY_CYCLES_PER_TOKEN)
            self.switch.sim.schedule(delay, self._run)

    def _close_route(self, route: RouteState) -> None:
        switch = self.switch
        if route.link is not None:
            switch.groups[route.direction].release(route.link, self)
        self.route = None
        if self.ns is not None and self.ns.blocked_cause is not None:
            self.ns.unblock(switch.sim.now)
        switch.routes_closed += 1
        if switch.route_hold_hist is not None:
            hold_ps = switch.sim.now - route.opened_ps
            switch.route_hold_hist.observe(hold_ps)
            switch.direction_hold_hist(route.direction).observe(hold_ps)
        tracer = switch.sim.tracer
        if tracer is not None:
            tracer.record(switch.sim.now, switch.name, "route_close",
                          self.name, str(route.dest))
        self.pump()  # a following message may already be buffered

    def __repr__(self) -> str:
        return f"<InputPort {self.name} buf={len(self.buffer)} route={self.route is not None}>"


class ChanendPort(InputPort):
    """Switch-side port of a transmitting local channel end.

    Pulls tokens straight from the chanend's transmit buffer and
    synthesizes the route-opening header from the chanend's destination
    (hardware does this on the first token of a new message).
    """

    def __init__(self, switch: "Switch", chanend: "Chanend"):
        super().__init__(switch, f"{switch.name}.c{chanend.index}", upstream=None)
        self.chanend = chanend

    def notify_tx(self) -> None:
        """The chanend queued tokens; start pumping after injection latency."""
        if self._pump_pending:
            return
        self._pump_pending = True
        delay = self.switch.frequency.cycles_to_ps(INJECTION_LATENCY_CYCLES)
        self.switch.sim.schedule(delay, self._run)

    def _peek(self) -> Token | None:
        return self.chanend.peek_tx()

    def _consume(self) -> Token:
        return self.chanend.pull_tx()

    def _open_route_header(self) -> list[Token] | None:
        if self.chanend.peek_tx() is None:
            return None
        dest = self.chanend.dest
        if dest is None:
            raise RoutingError(f"{self.name}: transmit without destination (setd)")
        return dest.header_tokens()


class Switch:
    """One node's switch: ports, direction groups, and a routing policy."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        coord: NodeCoord,
        fabric: "SwallowFabric",
        frequency: Frequency,
    ):
        self.sim = sim
        self.node_id = node_id
        self.coord = coord
        self.fabric = fabric
        self.frequency = frequency
        self.name = f"sw{node_id}"
        self.groups: dict[Direction, DirectionGroup] = {}
        self.link_ports: list[InputPort] = []
        self.chanend_ports: dict[int, ChanendPort] = {}
        self.routes_closed = 0
        self.tokens_delivered = 0
        self.tokens_forwarded = 0
        #: Routes cut mid-packet by a forced link failure, and tokens
        #: thrown away while flushing/draining them (repro.faults).
        self.routes_severed = 0
        self.tokens_discarded = 0
        #: Route-hold-time histogram, armed by :meth:`register_metrics`.
        self.route_hold_hist = None
        #: Per-direction route-hold histograms, created on first close in
        #: each direction (see :meth:`direction_hold_hist`).
        self._route_hold_dir: dict[Direction, object] = {}
        self._registry: "MetricsRegistry | None" = None

    def route_policy(self, dest_node: int) -> Direction:
        """Next-hop direction toward ``dest_node`` (set by the fabric)."""
        return self.fabric.next_direction(self.node_id, dest_node)

    def group(self, direction: Direction) -> DirectionGroup:
        """The direction group, created on first use."""
        if direction not in self.groups:
            self.groups[direction] = DirectionGroup(f"{self.name}.{direction.value}")
        return self.groups[direction]

    def add_outgoing(self, direction: Direction, link: HalfLink) -> None:
        """Wire an outgoing half-link in ``direction``."""
        self.group(direction).add(link)

    def add_incoming(self, link: HalfLink) -> InputPort:
        """Create the input port for an incoming half-link."""
        port = InputPort(self, f"{self.name}.in{len(self.link_ports)}", upstream=link)
        link.sink = port
        self.link_ports.append(port)
        if self.fabric.netscope is not None:
            self.fabric.netscope.attach_port(port)
        return port

    def chanend_port(self, chanend: "Chanend") -> ChanendPort:
        """The transmit port for a local chanend, created on first use."""
        port = self.chanend_ports.get(chanend.index)
        if port is None:
            port = ChanendPort(self, chanend)
            self.chanend_ports[chanend.index] = port
            if self.fabric.netscope is not None:
                self.fabric.netscope.attach_port(port)
        return port

    @property
    def routes_open(self) -> int:
        """Routes currently held open through this switch."""
        ports: list[InputPort] = [*self.link_ports, *self.chanend_ports.values()]
        return sum(1 for port in ports if port.route is not None)

    @property
    def routes_opened(self) -> int:
        """Routes ever opened through this switch (all ports)."""
        ports: list[InputPort] = [*self.link_ports, *self.chanend_ports.values()]
        return sum(port.routes_opened for port in ports)

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical switch state: counters plus every active port.

        A port is active when it buffers tokens, holds an open route, or
        is mid-discard of a severed packet; idle ports are omitted (and
        an unexpectedly active port after replay fails verification).
        """
        ports: dict[str, dict] = {}
        for port in [*self.link_ports, *self.chanend_ports.values()]:
            if not (port.buffer or port.route is not None
                    or port._discarding or port._header
                    or port.routes_severed or port.tokens_discarded):
                continue
            ports[port.name] = {
                "buffer": [[t.value, t.is_control] for t in port.buffer],
                "header": [[t.value, t.is_control] for t in port._header],
                "route_open": port.route is not None,
                "route_dest": (str(port.route.dest)
                               if port.route is not None else None),
                "discarding": port._discarding,
                "routes_opened": port.routes_opened,
                "routes_severed": port.routes_severed,
                "tokens_discarded": port.tokens_discarded,
            }
        return {
            "node": self.node_id,
            "routes_closed": self.routes_closed,
            "routes_severed": self.routes_severed,
            "tokens_delivered": self.tokens_delivered,
            "tokens_forwarded": self.tokens_forwarded,
            "tokens_discarded": self.tokens_discarded,
            "routes_open": self.routes_open,
            "active_ports": ports,
        }

    def restore_state(self, state: dict) -> None:
        """Verify a replayed switch against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, self.name)

    def direction_hold_hist(self, direction: Direction):
        """The per-direction route-hold histogram, created on first close.

        Labelled ``switch.route_hold_ps{direction=...,node=...}`` —
        distinct label set from the per-switch rollup, so both series
        coexist and route churn is attributable per output direction.
        """
        hist = self._route_hold_dir.get(direction)
        if hist is None:
            hist = self._registry.histogram(
                "switch.route_hold_ps", node=str(self.node_id),
                direction=direction.value,
            )
            self._route_hold_dir[direction] = hist
        return hist

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish this switch's routing/traffic series.

        Lazy series: ``switch.tokens_forwarded{node=...}``,
        ``switch.tokens_delivered``, ``switch.routes_opened``,
        ``switch.routes_closed``, the ``switch.routes_open`` gauge, and
        per-port fault attribution (``switch.port_routes_opened``,
        ``switch.port_routes_severed``, ``switch.port_tokens_discarded``
        with a ``port`` label, non-zero series only).  Also arms the
        eager ``switch.route_hold_ps`` histogram — per switch here, per
        direction lazily via :meth:`direction_hold_hist`.
        """
        labels = {"node": str(self.node_id)}
        registry.counter_fn("switch.tokens_forwarded",
                            lambda: self.tokens_forwarded, **labels)
        registry.counter_fn("switch.tokens_delivered",
                            lambda: self.tokens_delivered, **labels)
        registry.counter_fn("switch.routes_opened",
                            lambda: self.routes_opened, **labels)
        registry.counter_fn("switch.routes_closed",
                            lambda: self.routes_closed, **labels)
        registry.counter_fn("switch.routes_severed",
                            lambda: self.routes_severed, **labels)
        registry.counter_fn("switch.tokens_discarded",
                            lambda: self.tokens_discarded, **labels)
        registry.gauge_fn("switch.routes_open",
                          lambda: self.routes_open, **labels)
        self.route_hold_hist = registry.histogram(
            "switch.route_hold_ps", **labels
        )
        self._registry = registry

        def _collect_ports(emit) -> None:
            ports = [*self.link_ports,
                     *(self.chanend_ports[i]
                       for i in sorted(self.chanend_ports))]
            for port in ports:
                port_labels = {**labels, "port": port.name}
                if port.routes_opened:
                    emit("switch.port_routes_opened", port_labels,
                         port.routes_opened)
                if port.routes_severed:
                    emit("switch.port_routes_severed", port_labels,
                         port.routes_severed)
                if port.tokens_discarded:
                    emit("switch.port_tokens_discarded", port_labels,
                         port.tokens_discarded)

        registry.register_collector(_collect_ports)

    def __repr__(self) -> str:
        return f"<Switch {self.name} at {self.coord}>"
