"""The kernel performance observatory: ledger, regression gate, heartbeats.

Three connected layers close the transparency loop for the *simulator's
own* performance, the way :mod:`repro.obs.energyscope` closed it for
simulated joules:

* **Hot-path attribution** lives in :mod:`repro.obs.profiling`
  (per-source wall time, queue-op accounting, folded flame stacks) and
  :func:`repro.obs.trace_export.profile_chrome_trace` (the meta-trace).
* **The perf-history ledger** (this module): an append-only JSONL file
  of :class:`PerfRecord` rows — one per bench per run — plus a
  rolling-baseline regression detector with a noise tolerance.  The
  ledger turns ``bench_profile.json`` from a single snapshot into a
  trajectory, and the detector turns the trajectory into a gate that
  protects kernel-speed wins once they land.
* **Live run heartbeats** (this module): :class:`RunHeartbeat` emits
  periodic JSONL progress snapshots on an event-count cadence — the
  streaming-progress primitive the campaign farm and DSE sweeps will
  consume.

Determinism contract: nothing here reads the clock on its own behalf
inside the simulation — :class:`PerfRecord` timestamps are **passed
in** by the caller at the process edge, and every heartbeat line keeps
its wall-clock fields (:data:`WALL_FIELDS`) separate from the
deterministic core, which :func:`heartbeat_core` extracts.  Two
same-seed runs produce byte-identical heartbeat cores.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, TextIO

#: Heartbeat fields derived from the wall clock — excluded from
#: byte-identity comparisons and from any determinism digest.
WALL_FIELDS = frozenset({"wall_s", "events_per_sec"})


def config_digest(config: Any) -> str:
    """A short stable digest of a JSON-able configuration object."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# The perf-history ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerfRecord:
    """One bench's kernel throughput measurement at one point in time."""

    bench: str
    events: int
    wall_s: float
    #: Unix seconds, supplied by the caller (the CLI / bench harness
    #: stamps it at the process edge; nothing inside the determinism
    #: boundary reads the clock).
    timestamp: float
    git_sha: str = "unknown"
    config_digest: str = ""
    events_replayed: int = 0

    @property
    def events_per_sec(self) -> float:
        """Fresh kernel events per wall second (replay excluded)."""
        if self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s

    def to_dict(self) -> dict[str, Any]:
        """The ledger row (computed events/sec included for greppability)."""
        return {
            "bench": self.bench,
            "events": self.events,
            "events_replayed": self.events_replayed,
            "wall_s": self.wall_s,
            "events_per_sec": round(self.events_per_sec, 1),
            "timestamp": self.timestamp,
            "git_sha": self.git_sha,
            "config_digest": self.config_digest,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PerfRecord":
        return cls(
            bench=data["bench"],
            events=int(data["events"]),
            wall_s=float(data["wall_s"]),
            timestamp=float(data.get("timestamp", 0.0)),
            git_sha=str(data.get("git_sha", "unknown")),
            config_digest=str(data.get("config_digest", "")),
            events_replayed=int(data.get("events_replayed", 0)),
        )


def records_from_profile(
    profile: dict[str, Any],
    *,
    timestamp: float,
    git_sha: str = "unknown",
    min_events: int = 0,
) -> list[PerfRecord]:
    """Perf records for every bench row of a ``bench_profile.json`` doc.

    ``timestamp`` is supplied by the caller (process edge).  Rows with
    fewer than ``min_events`` events are skipped — events-per-second is
    meaningless for benches that barely touch the kernel.
    """
    records = []
    for row in profile.get("benches", []):
        if row.get("events", 0) < min_events:
            continue
        records.append(PerfRecord(
            bench=f"{row['file']}::{row['test']}",
            events=int(row["events"]),
            wall_s=float(row["wall_s"]),
            timestamp=timestamp,
            git_sha=git_sha,
            config_digest=config_digest(
                {"file": row["file"], "test": row["test"]}
            ),
            events_replayed=int(row.get("events_replayed", 0)),
        ))
    return records


class PerfHistory:
    """An append-only JSONL ledger of :class:`PerfRecord` rows.

    Rows are only ever appended, so file order is chronological per
    bench and the committed baseline can never be silently rewritten —
    a regression shows up as a new row that the detector flags, not as
    an overwritten number.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def append(self, record: PerfRecord) -> None:
        """Append one record (creating the file and parents if needed)."""
        self.extend([record])

    def extend(self, records: Iterable[PerfRecord]) -> int:
        """Append many records; returns how many were written."""
        rows = list(records)
        if not rows:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            for record in rows:
                handle.write(json.dumps(record.to_dict(), sort_keys=True,
                                        separators=(",", ":")) + "\n")
        return len(rows)

    def load(self) -> list[PerfRecord]:
        """All records in append order ([] when the file doesn't exist)."""
        if not self.path.exists():
            return []
        records = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(PerfRecord.from_dict(json.loads(line)))
        return records

    def by_bench(self) -> dict[str, list[PerfRecord]]:
        """Records grouped per bench, each group in append order."""
        groups: dict[str, list[PerfRecord]] = {}
        for record in self.load():
            groups.setdefault(record.bench, []).append(record)
        return groups

    def baseline(self, bench: str, window: int = 5) -> float | None:
        """Rolling baseline: median events/sec of the last ``window`` rows.

        Short histories have explicit semantics rather than falling out
        of the median by accident:

        * **0 sessions** — ``None``: there is no baseline, so the gate
          records the bench as *unseen* instead of comparing against 0.
        * **1 session** — that session's events/sec verbatim.  One run
          is a weak baseline, but gating against it still catches a
          collapse on the very next run.
        * **2 sessions** — their midpoint ``(a + b) / 2``, splitting the
          difference until a third run lets a true median reject the
          outlier.
        * **>= 3 sessions** — the median of the last ``window`` rows,
          which a single noisy run cannot drag.
        """
        group = self.by_bench().get(bench)
        if not group:
            return None
        rates = [r.events_per_sec for r in group[-window:]]
        if len(rates) == 1:
            return rates[0]
        if len(rates) == 2:
            return (rates[0] + rates[1]) / 2
        return _median(rates)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass(frozen=True)
class Comparison:
    """One bench's current throughput versus its rolling baseline."""

    bench: str
    baseline_eps: float
    current_eps: float
    tolerance: float

    @property
    def ratio(self) -> float:
        """current / baseline (1.0 = unchanged, <1 = slower)."""
        if self.baseline_eps <= 0:
            return 0.0
        return self.current_eps / self.baseline_eps

    @property
    def regressed(self) -> bool:
        """True when current throughput fell below baseline*(1-tolerance)."""
        return self.current_eps < self.baseline_eps * (1.0 - self.tolerance)

    def render(self) -> str:
        """One aligned comparison line with the gate's verdict."""
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.bench:<60} {self.baseline_eps:>12,.0f} -> "
            f"{self.current_eps:>12,.0f} ev/s  ({self.ratio:>6.2f}x)  {verdict}"
        )


def compare_against_history(
    history: PerfHistory,
    current: Iterable[PerfRecord],
    *,
    tolerance: float = 0.30,
    window: int = 5,
    min_events: int = 10_000,
) -> tuple[list[Comparison], list[PerfRecord]]:
    """Gate current records against the ledger's rolling baselines.

    Returns ``(comparisons, unseen)``: one :class:`Comparison` per
    current record that has a baseline and at least ``min_events``
    events (small benches are pure noise), plus the records with no
    history yet (new benches — recorded, never gated).  A comparison
    with :attr:`Comparison.regressed` set means the bench lost more
    than ``tolerance`` of its baseline events/sec.
    """
    comparisons: list[Comparison] = []
    unseen: list[PerfRecord] = []
    for record in current:
        if record.events < min_events:
            continue
        baseline = history.baseline(record.bench, window=window)
        if baseline is None:
            unseen.append(record)
            continue
        comparisons.append(Comparison(
            bench=record.bench,
            baseline_eps=baseline,
            current_eps=record.events_per_sec,
            tolerance=tolerance,
        ))
    return comparisons, unseen


def render_history_report(history: PerfHistory, window: int = 5) -> str:
    """A per-bench trajectory table for ``repro perf report``."""
    groups = history.by_bench()
    if not groups:
        return f"perf history {history.path}: empty"
    lines = [f"perf history {history.path}: "
             f"{sum(len(g) for g in groups.values())} records, "
             f"{len(groups)} benches",
             f"{'bench':<60} {'n':>4} {'first':>12} {'last':>12} "
             f"{'best':>12} {'trend':>7}"]
    for bench in sorted(groups):
        group = groups[bench]
        eps = [r.events_per_sec for r in group]
        baseline = _median(eps[-window:])
        trend = (eps[-1] / eps[0] - 1.0) if eps[0] > 0 else 0.0
        lines.append(
            f"{bench:<60} {len(group):>4} {eps[0]:>12,.0f} {eps[-1]:>12,.0f} "
            f"{max(eps):>12,.0f} {trend:>+6.1%}"
        )
        lines[-1] += f"  (baseline {baseline:,.0f})"
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Live run heartbeats
# ---------------------------------------------------------------------------


def heartbeat_core(line: dict[str, Any]) -> dict[str, Any]:
    """The deterministic part of one heartbeat line.

    Strips :data:`WALL_FIELDS`; what remains is byte-identical across
    two same-seed runs — the property the heartbeat determinism tests
    pin down.
    """
    return {k: v for k, v in line.items() if k not in WALL_FIELDS}


class RunHeartbeat:
    """Periodic JSONL progress snapshots on an event-count cadence.

    Every ``every_events`` fresh kernel events, :meth:`beat` writes one
    JSON line: sim time, cumulative fresh/replayed event counts, queue
    depth high-water, pending events, checkpoints taken, the metrics
    delta since the previous beat (when a registry is attached), and —
    outside the deterministic core — cumulative wall seconds and
    events/sec.  The cadence is event-count-based, so *which* beats
    exist and everything in their deterministic core is a pure function
    of the run's configuration.

    Hand the object to :meth:`repro.checkpoint.ResumableRun.run`,
    which beats from its drive loop (reporting replayed events
    separately) and closes the stream with a final beat.
    """

    def __init__(
        self,
        every_events: int,
        out=None,
        metrics=None,
    ) -> None:
        if every_events < 1:
            raise ValueError(f"every_events must be >= 1, got {every_events}")
        self.every_events = every_events
        self.metrics = metrics
        self.lines: list[dict[str, Any]] = []
        self.beats = 0
        self._out_path = None if out is None else Path(out)
        self._handle: TextIO | None = None
        self._wall_start = time.perf_counter()
        self._last_snapshot = metrics.snapshot() if metrics is not None else None

    def beat(
        self,
        sim,
        *,
        events: int,
        events_replayed: int = 0,
        checkpoints: int = 0,
        final: bool = False,
    ) -> dict[str, Any]:
        """Emit one heartbeat line; returns the line as a dict."""
        self.beats += 1
        wall_s = time.perf_counter() - self._wall_start
        line: dict[str, Any] = {
            "seq": self.beats,
            "final": final,
            "sim_time_ps": sim.now,
            "events": events,
            "events_replayed": events_replayed,
            "pending_events": sim.pending_events,
            "queue_depth_hwm": sim.queue_depth_high_water,
            "checkpoints": checkpoints,
        }
        if self.metrics is not None:
            snapshot = self.metrics.snapshot()
            line["metrics_delta"] = snapshot.delta(self._last_snapshot)
            self._last_snapshot = snapshot
        line["wall_s"] = round(wall_s, 6)
        line["events_per_sec"] = round(events / wall_s, 1) if wall_s > 0 else 0.0
        self.lines.append(line)
        if self._out_path is not None:
            if self._handle is None:
                self._out_path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self._out_path, "w", encoding="utf-8")
            self._handle.write(json.dumps(line, sort_keys=True,
                                          separators=(",", ":")) + "\n")
            self._handle.flush()
        return line

    def close(self) -> None:
        """Close the output file (idempotent; in-memory lines remain)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def core_jsonl(self) -> str:
        """The deterministic cores of every line, as canonical JSONL."""
        return "".join(
            json.dumps(heartbeat_core(line), sort_keys=True,
                       separators=(",", ":")) + "\n"
            for line in self.lines
        )

    def __enter__(self) -> "RunHeartbeat":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<RunHeartbeat every={self.every_events} beats={self.beats}"
            + (f" out={self._out_path}" if self._out_path else "")
            + ">"
        )
