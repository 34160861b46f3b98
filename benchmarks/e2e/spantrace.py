"""Per-layer host-time attribution for the end-to-end benchmark.

:class:`SpanTracer` replaces the public entry points of each simulator
layer with timing wrappers, installed as class attributes, so the
simulator itself is unchanged.  ``Simulator.schedule_at`` is wrapped
too, and it wraps every scheduled callback as an *event span*
attributed to the layer of the callback's module.  ``Simulator.run``
and ``run_until`` are the root spans: their self time is the event
kernel itself (heap pops and the drain loop).

Spans (name, layer, start, end, parent) live in flat arrays in memory
and can be written as a Chrome trace once the run is over.  A layer's
self time is its spans' duration minus their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

#: Layers in report order; ``kernel`` is the root spans' self time.
LAYERS = ("kernel", "sim", "xs1", "network", "energy", "obs", "nos", "faults", "other")

#: (class path, methods, layer) of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.sim.engine.Simulator", ("run", "run_until"), "kernel"),
    ("repro.xs1.thread.IsaThread", ("step",), "xs1"),
    ("repro.xs1.behavioral.BehavioralThread", ("step",), "xs1"),
    ("repro.xs1.core.XCore", ("count_instruction",), "xs1"),
    ("repro.network.link.HalfLink", ("send",), "network"),
    ("repro.network.switch.InputPort", ("accept",), "network"),
    ("repro.network.fabric.SwallowFabric", ("notify_tx", "notify_rx_space"), "network"),
    ("repro.energy.accounting.EnergyAccounting", ("update",), "energy"),
    ("repro.energy.accounting.CoreEnergyTracker", ("update",), "energy"),
    ("repro.energy.measurement.MeasurementBoard", ("sample_all",), "energy"),
    ("repro.sim.tracing.NullTracer", ("record",), "obs"),
    ("repro.obs.spans.Span", ("count_instruction",), "obs"),
    ("repro.core.nos.NanoOS", ("submit", "pick_core", "handle_core_failure"), "nos"),
    ("repro.faults.campaign.FaultCampaign", ("_inject",), "faults"),
)

#: Policy base classes; their hooks are wrapped on every subclass.
POLICY_BASES = ("repro.nos.policies.base.SchedulerPolicy",
                "repro.nos.policies.base.DVFSPolicy")
POLICY_HOOKS = ("on_submit", "choose", "replacement", "wants_degrade", "degrade",
                "on_task_submitted", "on_task_finished")

SCHEDULE_AT = ("repro.sim.engine.Simulator", "schedule_at")


def layer_of_module(module: str) -> str:
    """The layer owning code in ``module`` (``repro.<layer>...``)."""
    if module == "repro.core.nos":
        return "nos"
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "other"


def _resolve(path: str):
    """The class at dotted ``path``, or None when it no longer exists."""
    module_name, _, attr = path.rpartition(".")
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError):
        return None


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class SpanLog:
    """Spans in parallel arrays: name id, start/end ns, parent index."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str, str]] = []   # (kind, name, layer)
        self._ids: dict[tuple[str, str, str], int] = {}
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span (the name table stays)."""
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]

    def intern(self, kind: str, name: str, layer: str) -> int:
        """The id of span name ``name`` (``kind`` is entry or event)."""
        key = (kind, name, layer)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()


@dataclass
class Rollup:
    """Per-layer self time and per-name span counts of one traced run."""

    self_s: dict[str, float]
    #: (kind, name, layer) -> number of spans.
    counts: dict[tuple[str, str, str], int]
    #: Total duration of the root spans, seconds.
    root_s: float
    spans: int

    def count(self, name: str, kind: str | None = None, layer: str | None = None) -> int:
        """Spans matching ``name`` (``"*"``: any), optionally by kind/layer."""
        return sum(
            n for (k, nm, ly), n in self.counts.items()
            if (name == "*" or nm == name)
            and (kind is None or k == kind) and (layer is None or ly == layer)
        )


class SpanTracer:
    """Installs the timing wrappers; use as a context manager.

    Install it before the system is built, so callbacks scheduled during
    the build become event spans too, then :meth:`clear` the build's
    spans before the timed run.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self._saved: list[tuple[type, str, object]] = []
        self._event_ids: dict[object, int] = {}
        #: Entry points (``Class.method``) that no longer resolve.
        self.skipped: list[str] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Wrap every entry point that exists; list the rest in ``skipped``."""
        self.skipped = []
        for path, methods, layer in ENTRY_POINTS:
            cls = _resolve(path)
            for method in methods:
                if cls is not None and method in vars(cls):
                    self._wrap(cls, method, layer)
                else:
                    self.skipped.append(f"{path}.{method}")
        for path in POLICY_BASES:
            base = _resolve(path)
            if base is None:
                self.skipped.append(path)
            for cls in _subclasses(base) if base is not None else []:
                for hook in POLICY_HOOKS:
                    if hook in vars(cls):
                        self._wrap(cls, hook, "nos")
        simulator = _resolve(SCHEDULE_AT[0])
        if simulator is not None and SCHEDULE_AT[1] in vars(simulator):
            self._wrap_schedule_at(simulator)
        else:
            self.skipped.append(".".join(SCHEDULE_AT))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def clear(self) -> None:
        """Forget the spans recorded so far (e.g. during the build)."""
        self.log.clear()

    def _save(self, cls: type, method: str):
        original = vars(cls)[method]
        self._saved.append((cls, method, original))
        return original

    def _wrap(self, cls: type, method: str, layer: str) -> None:
        original = self._save(cls, method)
        nid = self.log.intern("entry", f"{cls.__name__}.{method}", layer)
        begin, finish = self.log.begin, self.log.finish

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = begin(nid)
            try:
                return original(*args, **kwargs)
            finally:
                finish(index)

        setattr(cls, method, wrapper)

    def _wrap_schedule_at(self, cls: type) -> None:
        original = self._save(cls, SCHEDULE_AT[1])
        nid = self.log.intern("entry", f"{cls.__name__}.{SCHEDULE_AT[1]}", "sim")
        begin, finish = self.log.begin, self.log.finish
        event_span = self._event_span

        @functools.wraps(original)
        def schedule_at(sim, time_ps, callback):
            index = begin(nid)
            try:
                return original(sim, time_ps, event_span(callback))
            finally:
                finish(index)

        setattr(cls, SCHEDULE_AT[1], schedule_at)

    def _event_id(self, callback) -> int:
        target = callback
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        # A wrapped entry point shares the wrapper's code object: key by
        # the method it wraps.
        target = getattr(target, "__wrapped__", target)
        key = getattr(target, "__code__", type(target))
        nid = self._event_ids.get(key)
        if nid is None:
            name = getattr(target, "__qualname__", type(target).__qualname__)
            module = getattr(target, "__module__", None) or ""
            nid = self._event_ids[key] = self.log.intern(
                "event", name, layer_of_module(module))
        return nid

    def _event_span(self, callback):
        nid = self._event_id(callback)
        begin, finish = self.log.begin, self.log.finish

        def event():
            index = begin(nid)
            try:
                callback()
            finally:
                finish(index)

        return event

    # -- results -------------------------------------------------------------

    def _arrays(self):
        log = self.log
        name_id = np.frombuffer(log.name_id, dtype=np.int32)
        start = np.frombuffer(log.start, dtype=np.int64)
        end = np.frombuffer(log.end, dtype=np.int64)
        parent = np.frombuffer(log.parent, dtype=np.int32)
        return name_id, start, end, parent

    def rollup(self) -> Rollup:
        """Self time per layer and span counts per name."""
        name_id, start, end, parent = self._arrays()
        duration = np.where(end > 0, end - start, 0)
        child = np.zeros(len(duration), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        self_ns = duration - child
        layer_ids = np.array([LAYERS.index(layer) for _, _, layer in self.log.names],
                             dtype=np.int64)
        by_layer = np.bincount(layer_ids[name_id], weights=self_ns, minlength=len(LAYERS))
        counts = np.bincount(name_id, minlength=len(self.log.names))
        return Rollup(
            self_s={layer: float(by_layer[i]) / 1e9 for i, layer in enumerate(LAYERS)},
            counts={key: int(counts[i]) for i, key in enumerate(self.log.names)},
            root_s=float(duration[~nested].sum()) / 1e9,
            spans=len(name_id),
        )

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome-trace complete event (µs)."""
        name_id, start, end, parent = self._arrays()
        origin = int(start.min()) if len(start) else 0
        with open(path, "w") as out:
            out.write('{"displayTimeUnit":"ns","traceEvents":[\n')
            for i in range(len(name_id)):
                kind, name, layer = self.log.names[name_id[i]]
                event = {
                    "name": name, "cat": f"{layer},{kind}", "ph": "X",
                    "ts": (int(start[i]) - origin) / 1e3,
                    "dur": (int(end[i]) - int(start[i])) / 1e3,
                    "pid": 1, "tid": 1,
                    "args": {"id": i, "parent": int(parent[i])},
                }
                out.write(("," if i else "") + json.dumps(event) + "\n")
            out.write("]}\n")
