"""Live run heartbeats: JSONL progress snapshots of a running simulation.

:class:`RunHeartbeat` emits a progress line every N fresh kernel
events of a :class:`~repro.checkpoint.ResumableRun` (``repro run
--heartbeat-every N`` and every farm job use it); the farm folds each
job's newest line into its live campaign view.

Determinism contract: every heartbeat line keeps its wall-clock fields
(:data:`WALL_FIELDS`) separate from the deterministic core, which
:func:`heartbeat_core` extracts.  Two same-seed runs produce
byte-identical heartbeat cores.

The simulator's own speed is not measured here: hot-path attribution
lives in :mod:`repro.obs.profiling`, and host time per simulated
instruction in the end-to-end benchmark (``benchmarks/e2e``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, TextIO

#: Heartbeat fields derived from the wall clock — excluded from
#: byte-identity comparisons and from any determinism digest.
WALL_FIELDS = frozenset({"wall_s", "events_per_sec"})


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
