"""Simulation profiling: where do the *simulator's* cycles go?

The energy model answers "where did the simulated joules go"; this
module answers the meta-question every scaling PR needs: how many events
did the kernel execute, on whose behalf, how much *wall time* each
callback source consumed, how hard the event queue worked (push
volume, cancel churn, depth over time), and how fast simulated time is
advancing relative to wall-clock time.
:meth:`repro.sim.engine.Simulator.profile` installs a
:class:`SimProfiler` for the duration of a ``with`` block and leaves a
finished :class:`SimProfile` behind::

    with sim.profile() as profile:
        sim.run()
    print(profile.render())
    print(profile.folded())        # flame-graph folded stacks

Wall-time attribution mirrors the energy scope's residual convention
(:mod:`repro.obs.energyscope`): per-source callback time is measured
directly (every event by default, or every ``wall_sample_every``-th
event scaled up), and whatever the callbacks do not account for — queue
maintenance, the run loop itself — lands in a synthetic ``<kernel>``
source, so the per-source wall times always sum to the total wall time
of the window.

Profiles deliberately live *outside* the determinism boundary: they
include wall-clock timings, so they are never part of metric snapshots
or trace digests.  The queue accounting (pushes, cancelled pops, the
depth timeline, which is keyed by executed-event count rather than wall
time) is deterministic, but it rides in the same report.
"""

from __future__ import annotations

import time
from time import perf_counter
from dataclasses import dataclass, field
from typing import Any, Callable

#: Synthetic source holding wall time not attributed to any callback:
#: queue pushes and pops, the run loop, and profiler overhead itself.
KERNEL_SOURCE = "<kernel>"

#: Run-length (key, count) pairs accumulate in a flat list and are
#: folded into the per-key counts in batches of this many, keeping the
#: per-run hook to a single list append.  The batch is kept small
#: enough for the buffer to stay cache-resident — larger batches
#: measurably slow the observed kernel on small-cache hosts.
_FOLD_THRESHOLD = 4096


def callback_source(callback: Callable[[], None]) -> str:
    """A stable, human-readable name for an event callback.

    Bound methods name their class (``InputPort._run``); plain functions
    and lambdas use their qualified name with the ``<locals>`` noise
    stripped (``FaultCampaign._inject.<lambda>``).
    """
    bound_self = getattr(callback, "__self__", None)
    if bound_self is not None:
        return f"{type(bound_self).__name__}.{callback.__name__}"
    name = getattr(callback, "__qualname__", None) or getattr(
        callback, "__name__", None
    )
    if name is None:
        return type(callback).__name__
    return name.replace(".<locals>", "")


def _key_source(key: Any) -> str:
    """Resolve a hot-path event key (usually a code object) to a name.

    Code objects carry their qualified name (``XCore._tick``,
    ``FaultCampaign._inject.<locals>.<lambda>``); callables without a code
    object were keyed by the callable itself and fall back to
    :func:`callback_source`.
    """
    qualname = getattr(key, "co_qualname", None) or getattr(
        key, "co_name", None
    )
    if qualname is not None:
        return qualname.replace(".<locals>", "")
    return callback_source(key)


@dataclass
class SimProfile:
    """The result of one profiled window of simulation."""

    events_total: int = 0
    events_by_source: dict[str, int] = field(default_factory=dict)
    queue_depth_high_water: int = 0
    sim_time_ps: int = 0
    wall_time_s: float = 0.0
    #: Trace records evicted by the attached recorder's ring buffer
    #: during this window (0 when no tracer was attached or nothing was
    #: lost) — surfaces flight-recorder truncation instead of silently
    #: dropping history.
    trace_dropped_events: int = 0
    #: Estimated wall seconds per callback source (sampled callback time
    #: scaled by the sampling stride, plus a ``<kernel>`` residual), so
    #: the values sum to :attr:`wall_time_s`.
    wall_by_source: dict[str, float] = field(default_factory=dict)
    #: Every how many executed events a callback was wall-timed (1 =
    #: every event).
    wall_sample_every: int = 1
    #: Number of events whose callbacks were actually wall-timed.
    wall_sampled_events: int = 0
    #: Event-queue operation accounting: total queue pushes, and pops
    #: that discarded a cancelled event (cancel churn — work the queue
    #: did for events that never ran).
    queue_pushes: int = 0
    queue_pops_cancelled: int = 0
    #: Sampled ``(events_executed, queue_depth)`` pairs — a deterministic
    #: queue-depth timeline keyed by executed-event count.
    depth_timeline: list[tuple[int, int]] = field(default_factory=list)
    #: Sampled ``(wall_offset_us, wall_duration_us, source)`` tuples for
    #: the meta-trace (bounded by the profiler's ``meta_capacity``).
    meta_samples: list[tuple[float, float, str]] = field(default_factory=list)
    #: Meta-trace samples discarded once ``meta_capacity`` was reached.
    meta_dropped: int = 0

    @property
    def sim_wall_ratio(self) -> float:
        """Simulated seconds per wall-clock second (>1 is faster than life)."""
        if self.wall_time_s <= 0:
            return 0.0
        return (self.sim_time_ps / 1e12) / self.wall_time_s

    @property
    def events_per_sec(self) -> float:
        """Kernel events executed per wall-clock second."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.events_total / self.wall_time_s

    @property
    def wall_attributed_s(self) -> float:
        """Sum of per-source wall estimates (== wall_time_s with residual)."""
        return sum(self.wall_by_source.values())

    @property
    def cancel_churn(self) -> float:
        """Share of queue pushes that were later popped as cancelled."""
        if self.queue_pushes <= 0:
            return 0.0
        return self.queue_pops_cancelled / self.queue_pushes

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable form (sources sorted by event count)."""
        return {
            "events_total": self.events_total,
            "events_by_source": dict(
                sorted(self.events_by_source.items(),
                       key=lambda kv: (-kv[1], kv[0]))
            ),
            "queue_depth_high_water": self.queue_depth_high_water,
            "sim_time_ps": self.sim_time_ps,
            "wall_time_s": self.wall_time_s,
            "sim_wall_ratio": self.sim_wall_ratio,
            "events_per_sec": self.events_per_sec,
            "trace_dropped_events": self.trace_dropped_events,
            "wall_by_source": dict(
                sorted(self.wall_by_source.items(),
                       key=lambda kv: (-kv[1], kv[0]))
            ),
            "wall_sample_every": self.wall_sample_every,
            "wall_sampled_events": self.wall_sampled_events,
            "queue_pushes": self.queue_pushes,
            "queue_pops_cancelled": self.queue_pops_cancelled,
            "cancel_churn": self.cancel_churn,
            "depth_timeline": [list(pair) for pair in self.depth_timeline],
            "meta_dropped": self.meta_dropped,
        }

    def folded(self) -> str:
        """Flame-graph folded stacks: ``sim;<source> <microseconds>``.

        One line per source with integer-microsecond weights, the format
        ``flamegraph.pl`` and speedscope ingest directly.  Sources sum
        to the window's total wall time (the ``<kernel>`` residual line
        carries everything the callbacks did not account for).
        """
        lines = []
        for source, seconds in sorted(self.wall_by_source.items(),
                                      key=lambda kv: (-kv[1], kv[0])):
            micros = int(round(seconds * 1e6))
            if micros > 0:
                lines.append(f"sim;{source} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self, top: int = 12) -> str:
        """A printable summary (the ``top`` busiest callback sources)."""
        lines = [
            f"profile: {self.events_total} events in {self.wall_time_s:.3f} s wall "
            f"({self.events_per_sec:,.0f} ev/s), "
            f"{self.sim_time_ps / 1e6:.1f} us simulated "
            f"(sim/wall {self.sim_wall_ratio:.2e}), "
            f"queue high-water {self.queue_depth_high_water}"
            + (
                f", TRACE DROPPED {self.trace_dropped_events} records"
                if self.trace_dropped_events else ""
            ),
            f"queue ops: {self.queue_pushes} pushes, "
            f"{self.queue_pops_cancelled} cancelled pops "
            f"({self.cancel_churn:.1%} churn); wall sampled every "
            f"{self.wall_sample_every} event(s), {self.wall_sampled_events} sampled",
        ]
        ranked = sorted(self.events_by_source.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        for source, count in ranked[:top]:
            share = count / self.events_total if self.events_total else 0.0
            wall = self.wall_by_source.get(source, 0.0)
            wall_share = wall / self.wall_time_s if self.wall_time_s > 0 else 0.0
            lines.append(
                f"  {source:<40} {count:>10}  {share:>6.1%}  "
                f"{wall * 1e3:>9.2f} ms  {wall_share:>6.1%}"
            )
        if len(ranked) > top:
            lines.append(f"  ... {len(ranked) - top} more sources")
        kernel = self.wall_by_source.get(KERNEL_SOURCE)
        if kernel is not None:
            share = kernel / self.wall_time_s if self.wall_time_s > 0 else 0.0
            lines.append(
                f"  {KERNEL_SOURCE:<40} {'-':>10}  {'':>6}  "
                f"{kernel * 1e3:>9.2f} ms  {share:>6.1%}"
            )
        return "\n".join(lines)


class SimProfiler:
    """Live hook object installed on a :class:`~repro.sim.engine.Simulator`.

    The simulator's drain loop (:meth:`repro.sim.engine.Simulator._drain`)
    keeps the per-event ledger itself, in the profiler's ``_buf``,
    ``_rle_key``, ``_rle_count`` and ``_events`` fields, and calls
    :meth:`after_event` once a wall-sampled callback returns.
    :meth:`on_cancelled_pop` fires per cancelled event discarded by
    :meth:`~repro.sim.engine.Simulator.next_event_time`; the drain loop
    adds its own cancelled pops to ``_cancelled`` in bulk.  Queue push
    volume, simulated time and the depth high-water mark come from the
    simulator's own counters, which it adds to :attr:`profile` as the
    window leaves each kernel, and the depth timeline reads its live
    depth count (:meth:`attach_depth`) — the scheduling hot path
    carries no profiler hook at all.  The ledger lives here, not on the
    kernel, so a profile handed to a rebuilt kernel
    (:meth:`~repro.sim.engine.Simulator.hand_over`) keeps counting.

    ``wall_sample_every`` trades fidelity for overhead: 1 (default)
    wall-times every callback; N times every N-th event and scales the
    measured time by N.  ``depth_timeline_every`` sets the queue-depth
    sampling stride, counted in *sampled* events; ``meta_capacity``
    bounds the number of sampled events retained for the Chrome
    meta-trace (0 disables it).

    The per-event hook is deliberately minimal: events are tallied by
    the callback's code object (shared across lambdas minted from the
    same line, so per-token closures do not bloat the dict) and name
    resolution is deferred to :meth:`finish`, off the hot path.  The
    tallies are keyed by the key object's ``id`` (the profiler keeps
    every key alive in ``_keys``): hashing a code object hashes its
    constants and names, several hundred nanoseconds per lookup.  See
    ``benchmarks/bench_observer_overhead.py`` for the budget this
    protects.
    """

    def __init__(
        self,
        wall_sample_every: int = 1,
        depth_timeline_every: int = 1024,
        meta_capacity: int = 50_000,
    ) -> None:
        if wall_sample_every < 1:
            raise ValueError(
                f"wall_sample_every must be >= 1, got {wall_sample_every}"
            )
        if depth_timeline_every < 1:
            raise ValueError(
                f"depth_timeline_every must be >= 1, got {depth_timeline_every}"
            )
        self.profile = SimProfile(wall_sample_every=wall_sample_every)
        #: The kernel this profiler is installed on, the profiler it
        #: replaced there (restored when this window closes), and the
        #: kernel's ``(seq, now)`` when the window reached it.
        self.kernel = None
        self.outer: "SimProfiler | None" = None
        self.window_base = (0, 0)
        self._wall_start = time.perf_counter()
        self._sample_every = wall_sample_every
        self._depth_every = depth_timeline_every
        self._meta_capacity = meta_capacity
        self._depth: Callable[[], int] | None = None
        #: Run-length-encoded (key, count) pairs pending aggregation
        #: into _counts.  Consecutive events usually share a callback
        #: (a core's tick loop), so the common hot-path case is a
        #:  pointer compare plus a local increment — no memory growth.
        #: Simulator._drain keeps this ledger with the fields hoisted.
        self._buf: list[tuple[Any, int]] = []
        self._rle_key: Any = None
        self._rle_count = 0
        #: Every key seen, by id; tallies below are keyed by the id.
        self._keys: dict[int, Any] = {}
        self._counts: dict[int, int] = {}
        self._sampled_s: dict[int, float] = {}
        self._events = 0
        self._cancelled = 0
        self._sampled_events = 0
        self._depth_timeline: list[tuple[int, int]] = []
        #: Sampled events as (perf_counter start, duration s, key).
        self._meta: list[tuple[float, float, Any]] = []
        self._meta_dropped = 0

    def attach_depth(self, depth: Callable[[], int]) -> None:
        """Let the profiler sample queue depth: ``depth()`` reads the
        kernel's live count of queued entries, cancelled ones included."""
        self._depth = depth

    def after_event(self, key: Any, started: float) -> None:
        """A wall-sampled event's callback, keyed ``key`` and started at
        ``perf_counter()`` time ``started``, just returned."""
        duration = perf_counter() - started
        k = id(key)
        sampled = self._sampled_s
        if k in sampled:
            sampled[k] += duration
        else:
            sampled[k] = duration
            self._keys[k] = key
        n = self._sampled_events = self._sampled_events + 1
        if len(self._meta) < self._meta_capacity:
            self._meta.append((started, duration, key))
        elif self._meta_capacity:
            self._meta_dropped += 1
        if n % self._depth_every == 0 and self._depth is not None:
            self._depth_timeline.append((n * self._sample_every, self._depth()))
        if len(self._buf) >= _FOLD_THRESHOLD:
            self._fold()

    def _fold(self) -> None:
        """Aggregate pending run-length (key, count) pairs into counts."""
        counts = self._counts
        keys = self._keys
        for key, count in self._buf:
            k = id(key)
            if k in counts:
                counts[k] += count
            else:
                counts[k] = count
                keys[k] = key
        self._buf.clear()

    def on_cancelled_pop(self) -> None:
        """The queue discarded a cancelled event."""
        self._cancelled += 1

    def finish(self) -> SimProfile:
        """Close the window: record wall time, attribute it, return.

        The queue accounting and simulated-time advance are already on
        :attr:`profile`: the simulator adds them from its own counters
        rather than observing them per event.
        """
        profile = self.profile
        profile.wall_time_s = time.perf_counter() - self._wall_start
        if self._rle_count:
            self._buf.append((self._rle_key, self._rle_count))
            self._rle_key = None
            self._rle_count = 0
        self._fold()
        names = {k: _key_source(key) for k, key in self._keys.items()}
        profile.events_total = sum(self._counts.values())
        events_by_source: dict[str, int] = {}
        for k, count in self._counts.items():
            name = names[k]
            events_by_source[name] = events_by_source.get(name, 0) + count
        profile.events_by_source = events_by_source
        profile.queue_pops_cancelled = self._cancelled
        profile.depth_timeline = self._depth_timeline
        profile.wall_sampled_events = self._sampled_events
        wall_start = self._wall_start
        profile.meta_samples = [
            ((started - wall_start) * 1e6, duration * 1e6, names[id(key)])
            for started, duration, key in self._meta
        ]
        profile.meta_dropped = self._meta_dropped
        attributed: dict[str, float] = {}
        for k, seconds in self._sampled_s.items():
            name = names[k]
            attributed[name] = (
                attributed.get(name, 0.0) + seconds * self._sample_every
            )
        total = sum(attributed.values())
        residual = profile.wall_time_s - total
        if residual < 0.0 and total > 0.0:
            # Stride-scaled estimates can overshoot the window when a
            # sampled event happens to be unusually slow (a host hiccup
            # lands on a sample and is multiplied by the stride).  The
            # attribution is a partition of the window, so normalise the
            # shares down to the measured wall time instead of letting
            # the sum exceed it.
            scale = profile.wall_time_s / total
            attributed = {name: s * scale for name, s in attributed.items()}
            residual = 0.0
        attributed[KERNEL_SOURCE] = residual
        profile.wall_by_source = attributed
        return profile
