"""The Swallow network fabric: switches + links + routing, as one object.

``SwallowFabric`` implements the :class:`repro.xs1.fabric.Fabric` protocol
that cores speak, and owns the graph of switches and half-links.  Topology
builders (:mod:`repro.network.topology`) populate it; cores are then
created against it, one per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.network.header import ChanendAddress
from repro.network.link import HalfLink
from repro.network.params import LinkSpec
from repro.network.routing import Direction, NodeCoord, RoutingError, next_direction
from repro.network.switch import Switch
from repro.sim import Frequency, Simulator

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.netscope import NetScope
    from repro.xs1.chanend import Chanend

#: A routing policy maps (current coordinate, destination coordinate) to
#: the next direction; the default is the paper's vertical-first order.
RoutePolicy = Callable[[NodeCoord, NodeCoord], Direction]


@dataclass(frozen=True)
class LinkRecord:
    """Bookkeeping for one full-duplex link pair."""

    node_a: int
    node_b: int
    direction_ab: Direction
    direction_ba: Direction
    forward: HalfLink
    backward: HalfLink

    @property
    def healthy(self) -> bool:
        """Both half-links operational."""
        return not (self.forward.failed or self.backward.failed)


class SwallowFabric:
    """Token-level network of per-node switches with wormhole routing."""

    def __init__(
        self,
        sim: Simulator,
        policy: RoutePolicy = next_direction,
        frequency: Frequency | None = None,
        use_operating_rate: bool = False,
    ):
        self.sim = sim
        self.policy = policy
        self.frequency = frequency or Frequency(500_000_000)
        self.use_operating_rate = use_operating_rate
        self.switches: dict[int, Switch] = {}
        self.coords: dict[int, NodeCoord] = {}
        self.links: list[HalfLink] = []
        self._chanends: dict[ChanendAddress, "Chanend"] = {}
        self._rx_blocked: dict[ChanendAddress, list] = {}
        #: Leaf nodes (e.g. Ethernet bridges) hang off one anchor node and
        #: take no transit traffic: node -> (anchor, from-anchor direction,
        #: to-anchor direction).
        self._leaves: dict[int, tuple[int, Direction, Direction]] = {}
        #: One record per full-duplex link pair (failure management).
        self.link_records: list[LinkRecord] = []
        #: Links already wired per ordered node pair — keeps link names
        #: unique when the same pair is connected by several
        #: :meth:`connect` calls (e.g. a torus wrap joining nodes that
        #: are already grid neighbours).
        self._pair_counts: dict[tuple[int, int], int] = {}
        #: Software routing tables (node -> dest -> direction); when set
        #: they take precedence over the coordinate policy.
        self.routing_tables: dict[int, dict[int, Direction]] | None = None
        #: Called with the :class:`LinkRecord` after each fail_link /
        #: fail_node_links (health monitoring, see repro.faults.healing).
        self.fault_listeners: list[Callable[[LinkRecord], None]] = []
        #: The fabric observatory, when attached (repro.obs.netscope).
        #: Late-built parts (links, lazily created chanend ports) consult
        #: this so their probes attach no matter the construction order.
        self.netscope: "NetScope | None" = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_node(self, node_id: int, coord: NodeCoord) -> Switch:
        """Create the switch for ``node_id`` at lattice position ``coord``."""
        if node_id in self.switches:
            raise ValueError(f"node {node_id} already exists")
        switch = Switch(self.sim, node_id, coord, self, self.frequency)
        self.switches[node_id] = switch
        self.coords[node_id] = coord
        return switch

    def connect(
        self,
        node_a: int,
        direction_ab: Direction,
        node_b: int,
        direction_ba: Direction,
        spec: LinkSpec,
        count: int = 1,
    ) -> None:
        """Wire ``count`` full-duplex links between two nodes.

        ``direction_ab`` is the direction the link leaves ``node_a``
        (e.g. SOUTH), ``direction_ba`` the direction it leaves ``node_b``
        (normally the opposite compass point, or INTERNAL for the
        in-package pair).
        """
        switch_a = self.switches[node_a]
        switch_b = self.switches[node_b]
        base = self._pair_counts.get((node_a, node_b), 0)
        self._pair_counts[(node_a, node_b)] = base + count
        self._pair_counts[(node_b, node_a)] = base + count
        for i in range(base, base + count):
            forward = HalfLink(
                self.sim, spec,
                f"{switch_a.name}->{switch_b.name}#{i}",
                self.use_operating_rate,
            )
            backward = HalfLink(
                self.sim, spec,
                f"{switch_b.name}->{switch_a.name}#{i}",
                self.use_operating_rate,
            )
            switch_a.add_outgoing(direction_ab, forward)
            switch_b.add_incoming(forward)
            switch_b.add_outgoing(direction_ba, backward)
            switch_a.add_incoming(backward)
            self.links.extend((forward, backward))
            record = LinkRecord(node_a, node_b, direction_ab, direction_ba,
                                forward, backward)
            self.link_records.append(record)
            if self.netscope is not None:
                self.netscope.attach_record(record)
        if self.routing_tables is not None:
            # Late wiring under software routing (e.g. an Ethernet
            # bridge attached to a mesh/torus): fold the new links in.
            self.use_table_routing()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def register_leaf(
        self,
        node_id: int,
        anchor_node: int,
        from_anchor: Direction,
        to_anchor: Direction,
    ) -> None:
        """Mark ``node_id`` as a leaf hanging off ``anchor_node``.

        Leaves (Ethernet bridges) sit at lattice coordinates outside the
        core grid; routes toward them travel the lattice to the anchor
        and take the final hop, and routes *from* them leave via their
        single link — they never carry transit traffic.
        """
        self._leaves[node_id] = (anchor_node, from_anchor, to_anchor)

    # -- link failures & software routing tables (paper §V.A: "New
    # -- routing algorithms can simply be programmed in software") --------

    def find_link(self, node_a: int, node_b: int, index: int = 0) -> LinkRecord:
        """The ``index``-th link-pair record between two nodes."""
        matches = [
            record for record in self.link_records
            if {record.node_a, record.node_b} == {node_a, node_b}
        ]
        if not matches:
            raise RoutingError(f"no link between nodes {node_a} and {node_b}")
        if index >= len(matches):
            raise RoutingError(
                f"only {len(matches)} links between {node_a} and {node_b}"
            )
        return matches[index]

    def fail_link(
        self, node_a: int, node_b: int, index: int = 0, force: bool = False
    ) -> LinkRecord:
        """Fail the ``index``-th link pair between two nodes (both ways).

        Models the edge-connector failures of §IV-B.  By default only
        idle links may fail; pass ``force=True`` for a *mid-run* failure
        (in-flight tokens dropped, severed routes flushed — see
        :meth:`repro.network.link.HalfLink.fail`).  Failing a pair that
        already failed raises :class:`RoutingError`.  When software
        routing tables are active they are recomputed immediately, and
        every registered fault listener is notified.
        """
        record = self.find_link(node_a, node_b, index)
        if not record.healthy:
            raise RoutingError(
                f"link {index} between nodes {node_a} and {node_b} "
                "already failed"
            )
        record.forward.fail(force=force)
        record.backward.fail(force=force)
        if self.routing_tables is not None:
            self.use_table_routing()
        for listener in self.fault_listeners:
            listener(record)
        return record

    def fail_node_links(self, node_id: int, force: bool = False) -> list[LinkRecord]:
        """Fail every healthy link pair touching ``node_id`` (switch death).

        Returns the records failed.  Routing tables are recomputed once,
        after the last pair dies.
        """
        failed: list[LinkRecord] = []
        for record in self.link_records:
            if node_id not in (record.node_a, record.node_b):
                continue
            if not record.healthy:
                continue
            record.forward.fail(force=force)
            record.backward.fail(force=force)
            failed.append(record)
        if not failed:
            raise RoutingError(f"node {node_id} has no healthy links to fail")
        if self.routing_tables is not None:
            self.use_table_routing()
        for record in failed:
            for listener in self.fault_listeners:
                listener(record)
        return failed

    def use_table_routing(self) -> None:
        """Compute shortest-path routing tables over *healthy* links.

        Replaces the coordinate policy with per-node next-hop tables —
        the software-programmable routing the paper describes.  Tables
        are recomputed automatically on later :meth:`fail_link` calls.
        """
        import networkx as nx

        graph = nx.MultiGraph()
        graph.add_nodes_from(self.coords)
        directions: dict[tuple[int, int], Direction] = {}
        for record in self.link_records:
            if not record.healthy:
                continue
            graph.add_edge(record.node_a, record.node_b)
            directions.setdefault((record.node_a, record.node_b),
                                  record.direction_ab)
            directions.setdefault((record.node_b, record.node_a),
                                  record.direction_ba)
        tables: dict[int, dict[int, Direction]] = {n: {} for n in self.coords}
        for dest in self.coords:
            try:
                paths = nx.single_source_shortest_path(graph, dest)
            except nx.NetworkXError:
                continue
            for node, path in paths.items():
                if len(path) < 2:
                    continue
                # path runs dest -> ... -> node; the node's next hop
                # toward dest is the previous element.
                next_hop = path[-2]
                tables[node][dest] = directions[(node, next_hop)]
        self.routing_tables = tables

    def use_coordinate_routing(self) -> None:
        """Return to the built-in dimension-order coordinate policy."""
        self.routing_tables = None

    def next_direction(self, current_node: int, dest_node: int) -> Direction:
        """Next-hop direction from ``current_node`` toward ``dest_node``."""
        if dest_node not in self.coords:
            raise RoutingError(f"unknown destination node {dest_node}")
        if self.routing_tables is not None:
            direction = self.routing_tables.get(current_node, {}).get(dest_node)
            if direction is None:
                raise RoutingError(
                    f"no healthy route from node {current_node} to {dest_node}"
                )
            return direction
        current_leaf = self._leaves.get(current_node)
        if current_leaf is not None:
            return current_leaf[2]  # a leaf's only way out
        dest_leaf = self._leaves.get(dest_node)
        if dest_leaf is not None:
            anchor, from_anchor, _ = dest_leaf
            if current_node == anchor:
                return from_anchor
            dest_coord = self.coords[anchor]
        else:
            dest_coord = self.coords[dest_node]
        current_coord = self.coords[current_node]
        if current_coord == dest_coord:
            # At the anchor-equivalent position but not the destination
            # node itself (only possible for leaf destinations handled
            # above) — defensive.
            raise RoutingError(
                f"node {current_node} cannot route to co-located node {dest_node}"
            )
        return self.policy(current_coord, dest_coord)

    # ------------------------------------------------------------------
    # Fabric protocol (what cores call)
    # ------------------------------------------------------------------

    def attach_chanend(self, chanend: "Chanend") -> None:
        """Register a channel end as addressable on its node."""
        if chanend.address.node not in self.switches:
            raise RoutingError(
                f"chanend {chanend.address}: node not in fabric "
                "(add_node before creating the core)"
            )
        self._chanends[chanend.address] = chanend

    def notify_tx(self, chanend: "Chanend") -> None:
        """A chanend queued tokens; wake its switch port."""
        switch = self.switches[chanend.address.node]
        switch.chanend_port(chanend).notify_tx()

    def notify_rx_space(self, chanend: "Chanend") -> None:
        """A chanend drained; resume ports blocked delivering to it."""
        blocked = self._rx_blocked.pop(chanend.address, None)
        if blocked:
            for port in blocked:
                port.pump()

    # ------------------------------------------------------------------
    # Switch support
    # ------------------------------------------------------------------

    def local_chanend(self, address: ChanendAddress) -> "Chanend":
        """The chanend object for a local delivery."""
        chanend = self._chanends.get(address)
        if chanend is None:
            raise RoutingError(f"no chanend at {address}")
        return chanend

    def block_on_rx(self, chanend: "Chanend", port) -> None:
        """Record that ``port`` is stalled on a full receive buffer."""
        waiters = self._rx_blocked.setdefault(chanend.address, [])
        if port not in waiters:
            waiters.append(port)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish every switch's and link's series, plus class rollups.

        Per-class rollups (``fabric.tokens{class=...}``,
        ``fabric.bits{class=...}``) come from
        :meth:`link_stats_by_class`, the same aggregation the energy
        ledger consumes — so traffic metrics and link energy agree by
        construction.
        """
        for node_id in sorted(self.switches):
            self.switches[node_id].register_metrics(registry)
        for link in self.links:
            link.register_metrics(registry)

        def _collect_classes(emit) -> None:
            for name, stats in sorted(self.link_stats_by_class().items()):
                emit("fabric.tokens", {"class": name}, stats["tokens"])
                emit("fabric.bits", {"class": name}, stats["bits"])
            emit("fabric.routes_open", {}, self.total_routes_open)

        registry.register_collector(_collect_classes)

    def link_stats_by_class(self) -> dict[str, dict[str, float]]:
        """Aggregate tokens/bits carried per link class (for energy)."""
        stats: dict[str, dict[str, float]] = {}
        for link in self.links:
            entry = stats.setdefault(
                link.spec.name,
                {"links": 0, "tokens": 0, "bits": 0, "busy_time_ps": 0},
            )
            entry["links"] += 1
            entry["tokens"] += link.tokens_carried
            entry["bits"] += link.bits_carried
            entry["busy_time_ps"] += link.busy_time_ps
        return stats

    @property
    def total_routes_open(self) -> int:
        """Routes currently open across every switch."""
        return sum(switch.routes_open for switch in self.switches.values())

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical fabric state: routing mode, every switch and link.

        Switches and links appear in construction order, which is itself
        deterministic, so the nested state (and hence the bundle digest)
        is byte-stable across runs.
        """
        state = {
            "table_routing": self.routing_tables is not None,
            "switches": {
                str(node_id): self.switches[node_id].snapshot_state()
                for node_id in sorted(self.switches)
            },
            "links": [link.snapshot_state() for link in self.links],
        }
        if self.netscope is not None:
            state["netscope"] = self.netscope.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Verify the replayed fabric against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, "fabric")

    def __repr__(self) -> str:
        return (
            f"<SwallowFabric nodes={len(self.switches)} links={len(self.links)}>"
        )
