"""Event tracing.

Every observable action in the simulator (instruction issue, token on a
link, route open/close, ADC sample) can be recorded as a trace record.
Traces serve three purposes:

* debugging and the worked examples;
* the determinism invariant (identical configs => identical trace digests),
  which stands in for the hardware's time-deterministic execution; and
* post-hoc analysis (latency and bandwidth measurements in the benches).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time_ps: int
    source: str
    kind: str
    detail: tuple[Any, ...] = ()

    def __str__(self) -> str:
        detail = " ".join(str(d) for d in self.detail)
        return f"[{self.time_ps:>12} ps] {self.source:<24} {self.kind} {detail}".rstrip()


def _materialise(raw: tuple) -> TraceRecord:
    """A record from its flat raw form ``(time_ps, source, kind, *detail)``."""
    return TraceRecord(raw[0], raw[1], raw[2], raw[3:])


class TraceRecorder:
    """Collects :class:`TraceRecord` objects, optionally filtered by kind.

    A bounded recorder is a *flight recorder*: when ``capacity`` records
    are held and a new one arrives, the **oldest** record is discarded so
    the trace always ends with the most recent activity (the part you
    want when something goes wrong at the end of a long run).  Every
    discard increments :attr:`dropped`, and ``repr()``/stats surface the
    count so truncation is never silent.
    """

    def __init__(self, kinds: Iterable[str] | None = None, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._kinds = set(kinds) if kinds is not None else None
        self._capacity = capacity
        # Records are held as flat raw (time_ps, source, kind, *detail)
        # tuples and materialised into TraceRecord objects only on
        # access: the record() hot path runs once per traced occurrence,
        # so a tuple append keeps observer overhead within the
        # profiler's budget (see benchmarks/bench_observer_overhead.py).
        # Flat matters: a tuple nesting the detail tuple survives its
        # first garbage-collector pass still tracked, so every record
        # would be promoted and rescanned by the older generations.
        self._records: deque[tuple] = deque(maxlen=capacity)
        self._appended = 0

    @property
    def capacity(self) -> int | None:
        """Maximum records retained (None = unbounded)."""
        return self._capacity

    @property
    def dropped(self) -> int:
        """Ring-buffer evictions since creation (or the last clear()).

        Derived from the append count rather than tracked per call: the
        deque's ``maxlen`` already evicts the oldest record on append,
        so the hot path never branches on capacity.
        """
        return max(0, self._appended - len(self._records))

    def record(self, *raw: Any) -> None:
        """``record(time_ps, source, kind, *detail)``: append a record.

        Subject to the kind filter and capacity: at capacity the oldest
        record is evicted (ring-buffer semantics) and :attr:`dropped`
        counts the eviction.  The arguments are taken as one tuple
        because that tuple *is* the stored flat raw record — no second
        tuple is built on this hot path.
        """
        if self._kinds is not None and raw[2] not in self._kinds:
            return
        self._appended += 1
        self._records.append(raw)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return (_materialise(raw) for raw in self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return _materialise(self._records[index])

    @property
    def records(self) -> list[TraceRecord]:
        """All collected records, in time order."""
        return [_materialise(raw) for raw in self._records]

    def filter(
        self,
        kind: str | None = None,
        source: str | None = None,
        predicate: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Records matching all the given criteria."""
        out = []
        for raw in self._records:
            if kind is not None and raw[2] != kind:
                continue
            if source is not None and raw[1] != source:
                continue
            rec = _materialise(raw)
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def first(self, kind: str, source: str | None = None) -> TraceRecord | None:
        """The earliest record of ``kind`` (and optionally ``source``)."""
        matches = self.filter(kind=kind, source=source)
        return matches[0] if matches else None

    def last(self, kind: str, source: str | None = None) -> TraceRecord | None:
        """The latest record of ``kind`` (and optionally ``source``)."""
        matches = self.filter(kind=kind, source=source)
        return matches[-1] if matches else None

    def digest(self) -> str:
        """A stable hash of the full trace — the determinism fingerprint."""
        hasher = hashlib.sha256()
        for raw in self._records:
            hasher.update(repr((*raw[:3], raw[3:])).encode())
        return hasher.hexdigest()

    def clear(self) -> None:
        """Drop all records (capacity and filters are kept)."""
        self._records.clear()
        self._appended = 0

    # -- export (see :mod:`repro.obs.trace_export`) -------------------------

    def to_jsonl(self) -> str:
        """The trace as JSON Lines (one object per record)."""
        from repro.obs.trace_export import to_jsonl

        return to_jsonl(self.records)

    def to_chrome_trace(self, spans=None) -> dict:
        """The trace as a Chrome trace-event document (Perfetto-loadable).

        Pass a :class:`~repro.obs.spans.SpanRecorder` to add span slices
        and cross-span flow arrows on a dedicated process.
        """
        from repro.obs.trace_export import to_chrome_trace

        return to_chrome_trace(self.records, spans=spans)

    def to_chrome_trace_json(self, spans=None) -> str:
        """The Chrome trace document as canonical, byte-stable JSON."""
        from repro.obs.trace_export import chrome_trace_json

        return chrome_trace_json(self.records, spans=spans)

    def stats(self) -> dict[str, int]:
        """Recorder health: records held, capacity and drop count."""
        return {
            "records": len(self._records),
            "capacity": -1 if self._capacity is None else self._capacity,
            "dropped": self.dropped,
        }

    def __repr__(self) -> str:
        capacity = "inf" if self._capacity is None else self._capacity
        return (
            f"<TraceRecorder {len(self._records)}/{capacity} records, "
            f"{self.dropped} dropped>"
        )


class NullTracer(TraceRecorder):
    """A recorder that drops everything.  Unused by the simulator
    (tracing is off when ``sim.tracer`` is None); kept while the
    end-to-end benchmark names ``NullTracer.record`` as an entry point."""

    def __init__(self) -> None:
        super().__init__(kinds=())

    def record(self, *raw: Any) -> None:
        """Discard the record."""
        return
