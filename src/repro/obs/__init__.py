"""Unified observability: metrics, trace export and simulation profiling.

Three views into a running (or finished) simulation:

* :mod:`repro.obs.metrics` — a labelled metrics registry
  (``switch.tokens_forwarded{node=3}``, ``link.utilization{...}``)
  with snapshot/delta semantics and near-zero overhead when disabled;
* :mod:`repro.obs.trace_export` — :class:`~repro.sim.tracing.TraceRecorder`
  exports to JSONL and Chrome trace-event format (Perfetto,
  ``chrome://tracing``);
* :mod:`repro.obs.profiling` — kernel self-profiling: events and wall
  time per callback source, queue-op accounting, folded flame stacks,
  sim-time/wall-time ratio;
* :mod:`repro.obs.perf` — :class:`~repro.obs.perf.RunHeartbeat`
  streaming progress snapshots of a run;
* :mod:`repro.obs.netscope` — the fabric observatory: windowed
  per-link/per-switch telemetry, blocked-route wait attribution by
  cause, spatial heat-map export and slice-cut traffic reports.

The assembled platform wires everything up:
``SwallowSystem(...).metrics`` is a live registry,
``SwallowSystem.trace()`` sets the kernel's one recorder,
``sim.tracer``, and ``Simulator.profile()`` measures the simulator
itself.  The tracer and the profiler are run-level observers: they
live on the kernel, and a watchdog rollback hands them to the rebuilt
system (:meth:`~repro.sim.engine.Simulator.hand_over`).
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    MetricsSnapshot,
    series_key,
)
from repro.obs.energyscope import (
    AttributionRow,
    EnergyAttribution,
    attribute_energy,
)
from repro.obs.netscope import (
    CAUSES,
    DEFAULT_WINDOW_PS,
    FLEET_SCHEMA,
    HEATMAP_SCHEMA,
    LinkProbe,
    NetScope,
    PortProbe,
    SliceBoundary,
    fleet_heatmap,
    merge_heatmaps,
)
from repro.obs.perf import WALL_FIELDS, RunHeartbeat, heartbeat_core
from repro.obs.profiling import (
    KERNEL_SOURCE,
    SimProfile,
    SimProfiler,
    callback_source,
)
from repro.obs.spans import Span, SpanMessage, SpanRecorder
from repro.obs.trace_export import (
    chrome_trace_json,
    profile_chrome_trace,
    source_category,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_profile_chrome_trace,
)
from repro.obs.watch import PowerWatchpoint, WatchEvent

__all__ = [
    "AttributionRow",
    "CAUSES",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_WINDOW_PS",
    "EnergyAttribution",
    "FLEET_SCHEMA",
    "Gauge",
    "HEATMAP_SCHEMA",
    "Histogram",
    "KERNEL_SOURCE",
    "LinkProbe",
    "Metric",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NetScope",
    "PortProbe",
    "PowerWatchpoint",
    "RunHeartbeat",
    "SliceBoundary",
    "SimProfile",
    "SimProfiler",
    "Span",
    "SpanMessage",
    "SpanRecorder",
    "WALL_FIELDS",
    "WatchEvent",
    "attribute_energy",
    "callback_source",
    "chrome_trace_json",
    "fleet_heatmap",
    "heartbeat_core",
    "merge_heatmaps",
    "profile_chrome_trace",
    "series_key",
    "source_category",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_profile_chrome_trace",
]
