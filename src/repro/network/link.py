"""Physical link model.

A Swallow link is five wires per direction carrying 8-bit tokens as four
2-bit symbols.  Here each direction is a :class:`HalfLink` that serializes
one token at a time (the class's token time) into the input buffer of the
far switch, under credit-based flow control: a token may only be launched
while the far buffer has space, so backpressure propagates hop by hop —
"Switches use wormhole routing with credit-based flow control" (§V.B).

A half-link is also the unit of *route allocation*: wormhole routing holds
a link from the route-opening header until the closing END control token
(or forever, for circuit-switched channels).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.network.params import SWITCH_BUFFER_TOKENS, LinkSpec
from repro.network.token import HEADER_TOKENS, TOKEN_BITS, Token

from repro.sim import SimulationError, Simulator

if TYPE_CHECKING:
    from repro.network.switch import InputPort
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.netscope import LinkProbe
    from repro.sim.engine import EventHandle

#: A flaky-link hook: given the token about to be serialized, return the
#: token to deliver, a replacement (corruption), or ``None`` to drop it.
FaultHook = Callable[[Token], "Token | None"]


class LinkFailedError(RuntimeError):
    """Raised when an operation is attempted on an already-failed link."""


class HalfLink:
    """One direction of a physical link: serializer + credits + allocation."""

    def __init__(
        self,
        sim: Simulator,
        spec: LinkSpec,
        name: str,
        use_operating_rate: bool = False,
    ):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.token_time_ps = spec.token_time_ps(use_operating_rate)
        self.sink: "InputPort | None" = None
        self.credits = SWITCH_BUFFER_TOKENS
        self.busy = False
        self.holder: "InputPort | None" = None
        self.failed = False
        self.tokens_carried = 0
        self.bits_carried = 0
        self.busy_time_ps = 0
        #: Fault-injection counters (see :mod:`repro.faults`).
        self.tokens_dropped = 0
        self.tokens_corrupted = 0
        #: Flaky-link hook installed by a fault campaign; header and
        #: control tokens are never passed to it (the low-level symbol
        #: encoding protects them), only payload data tokens.
        self.fault_hook: FaultHook | None = None
        self._inflight: "EventHandle | None" = None
        #: The token :attr:`_inflight` delivers (None: it was dropped).
        self._inflight_token: Token | None = None
        self._sent_since_seize = 0
        #: Optional netscope probe (see :mod:`repro.obs.netscope`).
        self.ns: "LinkProbe | None" = None

    # -- route allocation ---------------------------------------------------

    @property
    def free(self) -> bool:
        """True when no route currently holds this link (and it works)."""
        return self.holder is None and not self.failed

    def fail(self, force: bool = False) -> None:
        """Mark the link failed (edge-connector yield, §IV-B).

        Without ``force`` only idle links may fail — fail before
        injecting traffic that would use it, then re-route with table
        routing (:meth:`repro.network.fabric.SwallowFabric.use_table_routing`).

        With ``force=True`` the link may die *mid-run*: any in-flight
        token is dropped, the downstream remainder of the severed route
        is flushed hop by hop (buffered and in-flight tokens discarded,
        held links released to their waiters), and the upstream holder
        discards the rest of the current packet up to its closing END
        token.  Failing an already-failed link raises
        :class:`LinkFailedError` either way.
        """
        if self.failed:
            raise LinkFailedError(f"{self.name}: link already failed")
        if not force and (self.holder is not None or self.busy):
            raise RuntimeError(
                f"{self.name}: cannot fail a link in use (pass force=True "
                "to model a mid-run failure)"
            )
        self.failed = True
        if not force:
            return
        self.abort_inflight()
        if self.sink is not None:
            self.sink.flush_stale()
        if self.holder is not None:
            self.holder.sever_route()

    def abort_inflight(self) -> None:
        """Drop the token currently being serialized, if any.

        Cancels the pending delivery event, refunds the credit the send
        consumed (the far buffer never held the token) and counts the
        loss.  Used by forced failures and downstream route flushing.
        """
        if self.busy and self._inflight is not None:
            self._inflight.cancel()
            self._inflight = None
            self._inflight_token = None
            self.busy = False
            self.credits += 1
            self.tokens_dropped += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.record(self.sim.now, self.name, "token_dropped",
                              "in-flight")

    def seize(self, port: "InputPort") -> None:
        """Allocate the link to a route (caller checked :attr:`free`)."""
        if self.holder is not None:
            raise SimulationError(f"{self.name} already held")
        self.holder = port
        self._sent_since_seize = 0

    def release(self, port: "InputPort") -> None:
        """Release the link at route close."""
        if self.holder is not port:
            raise SimulationError(f"{self.name} released by non-holder")
        self.holder = None

    # -- token transfer -----------------------------------------------------

    def can_send(self) -> bool:
        """True when a token can be launched right now."""
        return not self.busy and self.credits > 0

    def send(self, token: Token) -> None:
        """Launch one token; it arrives after the serialization time.

        A flaky-link :attr:`fault_hook` may drop or corrupt *payload*
        data tokens.  Header tokens (the first :data:`HEADER_TOKENS` of
        each seized route) and control tokens are exempt — corrupting
        them would misroute or wedge the wormhole network, whereas the
        real link protocol's control symbols are separately encoded.
        Dropped tokens still cost serialization time and link energy;
        their credit is refunded at delivery time (the far buffer never
        held them).
        """
        if self.busy or self.credits <= 0:
            raise SimulationError(f"{self.name}: send while busy or out of credit")
        if self.sink is None:
            raise SimulationError(f"{self.name}: unwired link")
        outcome: Token | None = token
        if (
            self.fault_hook is not None
            and not token.is_control
            and self._sent_since_seize >= HEADER_TOKENS
        ):
            outcome = self.fault_hook(token)
            if (
                outcome is not None
                and outcome is not token
                and outcome.span is None
                and token.span is not None
            ):
                # A corrupting hook rebuilt the token; keep the causal
                # span riding so downstream hops stay attributed.
                outcome = replace(outcome, span=token.span)
        self._sent_since_seize += 1
        self.busy = True
        self.credits -= 1
        self.tokens_carried += 1
        self.bits_carried += TOKEN_BITS
        self.busy_time_ps += self.token_time_ps
        sim = self.sim
        if self.ns is not None:
            self.ns.on_send(sim.now, TOKEN_BITS, self.token_time_ps)
        if token.span is not None:
            # Charge the wire bits to the originating span, per link
            # class, mirroring bits_carried: dropped and corrupted
            # tokens still cost serialization energy (§V, Table I).
            token.span.add_wire_bits(self.spec.name, TOKEN_BITS)
        tracer = sim.tracer
        if outcome is None:
            self.tokens_dropped += 1
            if tracer is not None:
                tracer.record(sim.now, self.name, "token_dropped", str(token))
        else:
            if outcome is not token:
                self.tokens_corrupted += 1
                if tracer is not None:
                    tracer.record(sim.now, self.name, "token_corrupted",
                                  str(token), str(outcome))
            if tracer is not None:
                tracer.record(sim.now, self.name, "token", str(outcome))
        self._inflight_token = outcome
        self._inflight = sim.schedule(self.token_time_ps, self._arrive)

    def _arrive(self) -> None:
        """The in-flight token finished serializing: deliver it to the
        far buffer, or, when a flaky link lost it, refund its credit."""
        token = self._inflight_token
        self._inflight_token = None
        self.busy = False
        self._inflight = None
        if token is None:
            self.credits += 1      # the far buffer never received it
        else:
            self.sink.accept(token)
        if self.holder is not None:
            self.holder.pump()

    def return_credit(self) -> None:
        """The far buffer freed a slot; the holder may continue."""
        self.credits += 1
        if self.holder is not None:
            self.holder.pump()

    def utilization(self, elapsed_ps: int) -> float:
        """Fraction of ``elapsed_ps`` this link spent serializing tokens."""
        if elapsed_ps <= 0:
            return 0.0
        return min(1.0, self.busy_time_ps / elapsed_ps)

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical link state: credits, allocation, wire counters.

        In-flight tokens are represented by ``busy`` plus the credit
        count — the serialization event itself is re-registered by the
        restore replay, which must land the link back in exactly this
        state.
        """
        return {
            "name": self.name,
            "failed": self.failed,
            "busy": self.busy,
            "credits": self.credits,
            "held": self.holder is not None,
            "fault_hook": self.fault_hook is not None,
            "tokens_carried": self.tokens_carried,
            "bits_carried": self.bits_carried,
            "busy_time_ps": self.busy_time_ps,
            "tokens_dropped": self.tokens_dropped,
            "tokens_corrupted": self.tokens_corrupted,
        }

    def restore_state(self, state: dict) -> None:
        """Verify a replayed link against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, self.name)

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish this half-link's traffic series (one lazy collector).

        Series: ``link.tokens{link=...}``, ``link.bits{link=...}`` and
        ``link.utilization{link=...}`` (fraction of elapsed sim time
        spent serializing).
        """
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self, emit) -> None:
        labels = {"link": self.name}
        emit("link.tokens", labels, self.tokens_carried)
        emit("link.bits", labels, self.bits_carried)
        emit("link.utilization", labels, self.utilization(self.sim.now))

    def __repr__(self) -> str:
        return f"<HalfLink {self.name} {self.spec.name} {'busy' if self.busy else 'idle'}>"


class DirectionGroup:
    """All half-links leaving a switch in one direction.

    Models the paper's link aggregation: "Multiple links can be assigned
    to the same routing direction, where a new communication will use the
    next unused link" (§V.B).  Routes that find every link held queue FIFO
    and are granted links as routes close.

    **Escape-lane reservation.**  Aggregated groups (the four in-package
    links) dedicate their last link — and hence that link's input buffer —
    to *exit* layer crossings: the final hop of a multi-hop route, which
    only ever waits on local delivery and therefore always drains.
    Transit ("entry") crossings and single-hop in-package messages
    ("direct") share the other three links and never touch the escape
    link, so no transit credit cycle can close through it.  This breaks
    the wormhole deadlock that otherwise wedges bisection-stressing
    traffic, and matches the paper's own provision: "Provided no more
    than three links are used for channel switching, packeted data can
    still flow through the network" (§V.B).  Single-link groups ignore
    lanes.
    """

    LANES = ("exit", "entry", "direct", "any")

    def __init__(self, name: str):
        self.name = name
        self.links: list[HalfLink] = []
        #: Each lane's FIFO of queued ports, made when a port first
        #: queues on the lane and dropped once it empties, so a group
        #: no route has waited on holds none.
        self.waiters: dict[str, deque["InputPort"]] = {}

    def add(self, link: HalfLink) -> None:
        """Register an outgoing half-link in this direction."""
        self.links.append(link)

    def _lane_links(self, lane: str) -> list[HalfLink]:
        if lane not in self.LANES:
            raise ValueError(f"unknown lane {lane!r}")
        if len(self.links) < 2 or lane == "any":
            return self.links
        if lane == "exit":
            return self.links[-1:]     # the dedicated escape link
        return self.links[:-1]         # entry/direct: the other links

    def try_allocate(self, port: "InputPort", lane: str = "any") -> HalfLink | None:
        """Grant the next unused link of ``lane``, or queue the port."""
        for link in self._lane_links(lane):
            if link.free:
                link.seize(port)
                return link
        queue = self.waiters.get(lane)
        if queue is None:
            queue = self.waiters[lane] = deque()
        if port not in queue:
            queue.append(port)
        return None

    def release(self, link: HalfLink, port: "InputPort") -> None:
        """Close a route; hand the link to the oldest eligible waiter.

        A link that failed while held is released but never re-granted;
        its waiters stay queued for the lane's surviving links.
        """
        link.release(port)
        if link.failed or not self.waiters:
            return
        for lane in self.LANES:
            queue = self.waiters.get(lane)
            if queue and link in self._lane_links(lane):
                next_port = queue.popleft()
                if not queue:
                    del self.waiters[lane]
                link.seize(next_port)
                next_port.granted_link(link)
                return

    def forget(self, port: "InputPort") -> None:
        """Drop ``port`` from every lane's wait queue (route severed)."""
        for lane, queue in list(self.waiters.items()):
            try:
                queue.remove(port)
            except ValueError:
                continue
            if not queue:
                del self.waiters[lane]

    @property
    def all_waiters(self) -> list["InputPort"]:
        """Every queued port, across lanes."""
        return [port for lane in self.LANES
                for port in self.waiters.get(lane, ())]

    def __repr__(self) -> str:
        held = sum(1 for link in self.links if not link.free)
        return f"<DirectionGroup {self.name} {held}/{len(self.links)} held>"
