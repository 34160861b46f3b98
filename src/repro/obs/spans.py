"""Causal spans: distributed-tracing contexts for simulated software.

The paper's energy-transparency story needs an answer to *which piece of
software* spent the joules, not just which core.  A :class:`Span` is the
tracing industry's answer adapted to the simulator: a named interval of
work with a parent, carried by the thread executing it and *piggybacked
on every token that thread sends* (see ``Token.span``).  Because the
annotation rides the wire, a message's end-to-end path — chanend buffer,
per-hop serialization, retries injected by a fault campaign — is charged
to the span that produced it, and cross-core causality (producer span →
consumer span) reconstructs as messages between spans.

Everything here is deterministic: span ids are sequential, collections
are ordered by creation, and the exports (:meth:`SpanRecorder.to_jsonl`,
the Chrome-trace flow events in :mod:`repro.obs.trace_export`) are pure
functions of the recorded state — two identical runs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class SpanMessage:
    """One observed cross-span message (send completion → receive)."""

    src_id: int
    dst_id: int
    send_ps: int
    recv_ps: int

    def to_dict(self) -> dict:
        """A JSON-serialisable form."""
        return {
            "type": "message",
            "src": self.src_id,
            "dst": self.dst_id,
            "send_ps": self.send_ps,
            "recv_ps": self.recv_ps,
        }


@dataclass
class Span:
    """One attributable interval of work.

    Ledger fields fill in as the simulation runs: the owning core charges
    :attr:`instructions` (split per node in :attr:`instr_by_node`, since
    a nOS task may be restarted on a different core), chanends charge
    :attr:`bits_sent` at buffer entry, and every half-link hop charges
    :attr:`wire_bits_by_class` under the link's Table I class.  The
    instruction counts are read through properties, which first book the
    silent issue runs still charging the span (see
    :class:`~repro.xs1.core.SilentRun`).
    """

    name: str
    span_id: int
    recorder: "SpanRecorder" = field(repr=False)
    parent: "Span | None" = None
    node_id: int | None = None
    start_ps: int | None = None
    end_ps: int | None = None
    #: Instructions charged so far, in total and per node; read
    #: :attr:`instructions` and :attr:`instr_by_node` instead.
    issued: int = 0
    issued_by_node: dict[int, int] = field(default_factory=dict)
    #: Payload bits this span pushed into transmit buffers.
    bits_sent: int = 0
    #: Wire bits serialized on behalf of this span, per link class —
    #: every hop counts, so multi-hop routes and retransmissions cost
    #: proportionally more, exactly like the global link ledger.
    wire_bits_by_class: dict[str, int] = field(default_factory=dict)
    #: Token-hops charged (one per token per link traversed).
    token_hops: int = 0
    #: Wire bits of retransmitted frames (ReliableChannel retries).
    retry_bits: int = 0
    #: Simulation time of the span's most recent send (message causality).
    last_send_ps: int = 0
    #: Free-form key -> value labels (policy decisions, deadline verdicts).
    #: Exported sorted, so annotated traces stay byte-stable.
    annotations: dict[str, str] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    #: Silent runs charging this span that are not yet fully booked.
    runs: list = field(default_factory=list, repr=False, compare=False)

    # -- lifecycle ----------------------------------------------------------

    def begin(self, time_ps: int) -> None:
        """Open the span (first call wins; later calls are no-ops)."""
        if self.start_ps is None:
            self.start_ps = time_ps

    def finish(self, time_ps: int) -> None:
        """Close the span (first call wins; later calls are no-ops)."""
        if self.end_ps is None:
            self.end_ps = time_ps

    @property
    def parent_id(self) -> int | None:
        """The parent's span id, or None for a root."""
        return self.parent.span_id if self.parent is not None else None

    @property
    def path(self) -> str:
        """Root-to-self span names joined with ``;`` (folded-stacks form)."""
        names: list[str] = []
        span: Span | None = self
        while span is not None:
            names.append(span.name)
            span = span.parent
        return ";".join(reversed(names))

    def _settle(self) -> None:
        for run in tuple(self.runs):  # a finished run leaves the list
            run.settle()

    @property
    def instructions(self) -> int:
        """Issued instructions charged, up to the latest event."""
        self._settle()
        return self.issued

    @property
    def instr_by_node(self) -> dict[int, int]:
        """:attr:`instructions` split by the node that issued them."""
        self._settle()
        return self.issued_by_node

    @property
    def wire_bits(self) -> int:
        """Total wire bits across all link classes."""
        return sum(self.wire_bits_by_class.values())

    def child(self, name: str, node_id: int | None = None) -> "Span":
        """Create a child span."""
        return self.recorder.span(name, parent=self, node_id=node_id)

    # -- charging (hot paths) ----------------------------------------------

    def count_instruction(self, node_id: int) -> None:
        """Charge one issued instruction executed on ``node_id``."""
        self.issued += 1
        self.issued_by_node[node_id] = self.issued_by_node.get(node_id, 0) + 1

    def add_wire_bits(self, link_class: str, bits: int) -> None:
        """Charge ``bits`` serialized on a link of ``link_class``."""
        by_class = self.wire_bits_by_class
        by_class[link_class] = by_class.get(link_class, 0) + bits
        self.token_hops += 1

    def annotate(self, key: str, value) -> None:
        """Attach a label (last write wins; values are stringified)."""
        self.annotations[str(key)] = str(value)

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serialisable form (stable key order)."""
        return {
            "type": "span",
            "trace_id": self.recorder.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node_id,
            "start_ps": self.start_ps,
            "end_ps": self.end_ps,
            "instructions": self.instructions,
            "instr_by_node": {
                str(node): count
                for node, count in sorted(self.instr_by_node.items())
            },
            "bits_sent": self.bits_sent,
            "wire_bits_by_class": dict(sorted(self.wire_bits_by_class.items())),
            "token_hops": self.token_hops,
            "retry_bits": self.retry_bits,
            "annotations": dict(sorted(self.annotations.items())),
        }

    def __str__(self) -> str:
        return f"span#{self.span_id} {self.name}"


class SpanRecorder:
    """Creates spans, observes cross-span messages, exports the tree."""

    def __init__(self, trace_id: int = 1):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.messages: list[SpanMessage] = []
        self._next_id = 1

    def span(
        self,
        name: str,
        parent: Span | None = None,
        node_id: int | None = None,
    ) -> Span:
        """Create a new span (ids are sequential, hence deterministic)."""
        span = Span(
            name=name, span_id=self._next_id, recorder=self,
            parent=parent, node_id=node_id,
        )
        self._next_id += 1
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        return span

    def record_message(
        self, src: Span, dst: Span, send_ps: int, recv_ps: int
    ) -> None:
        """Record one completed cross-span message."""
        self.messages.append(
            SpanMessage(src.span_id, dst.span_id, send_ps, recv_ps)
        )

    # -- queries ------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Spans with no parent, in creation order."""
        return [span for span in self.spans if span.parent is None]

    def find(self, name: str) -> Span | None:
        """The first span named ``name``, if any."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterable[Span]:
        return iter(self.spans)

    # -- export -------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Spans (by id) then messages (in order) as canonical JSON Lines."""
        lines = [
            json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
            for span in self.spans
        ]
        lines += [
            json.dumps(msg.to_dict(), sort_keys=True, separators=(",", ":"))
            for msg in self.messages
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        """A stable hash of the span tree + messages (determinism checks)."""
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()

    def render(self) -> str:
        """A printable indented span tree with the per-span ledgers."""
        lines = [
            f"trace {self.trace_id}: {len(self.spans)} spans, "
            f"{len(self.messages)} messages"
        ]

        def visit(span: Span, depth: int) -> None:
            start = "?" if span.start_ps is None else f"{span.start_ps / 1e6:.1f}"
            end = "?" if span.end_ps is None else f"{span.end_ps / 1e6:.1f}"
            lines.append(
                f"{'  ' * depth}#{span.span_id} {span.name} "
                f"[{start}..{end} us] node={span.node_id} "
                f"instr={span.instructions} sent={span.bits_sent}b "
                f"wire={span.wire_bits}b hops={span.token_hops}"
                + (f" retry={span.retry_bits}b" if span.retry_bits else "")
            )
            for c in span.children:
                visit(c, depth + 1)

        for root in self.roots():
            visit(root, 0)
        return "\n".join(lines)
