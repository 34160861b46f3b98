"""Discrete-event simulation engine.

A single global event queue ordered by (time, sequence number) drives every
component of the simulated Swallow system: core pipelines, network links,
switches and the energy-measurement ADC all schedule callbacks here.

The sequence number makes event ordering total and deterministic: events
scheduled earlier run earlier when timestamps tie, so a simulation is a
pure function of its configuration.  The queue is a calendar: one FIFO
bucket per pending timestamp, and a heap of the distinct timestamps.
Every push takes the next sequence number and joins the back of its
time's one bucket, so draining the earliest bucket front to back is
exactly ``(time, seq)`` order.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import SimProfile


class SimulationError(RuntimeError):
    """Raised for invalid scheduling or a wedged simulation."""


class EventHandle:
    """A scheduled event, returned by :meth:`Simulator.schedule`.

    The handle *is* the queued event: it waits in the bucket of its
    time until the drain loop reaches it.

    An owner may *arm* a handle by setting ``repeat`` and ``period``:
    while ``repeat`` is positive, reaching the head of the queue is a
    *silent firing* — the kernel counts it as an executed event,
    decrements ``repeat`` and moves the handle to the back of the
    bucket ``period`` later under the next sequence number, exactly the
    push a callback that rescheduled itself one period on would have
    made, but without calling it.  Setting ``repeat`` back to 0 disarms
    the handle: its pending entry then fires the callback as usual.
    """

    __slots__ = ("callback", "cancelled", "executed", "repeat", "period")

    def __init__(self, callback: Callable[[], None]):
        self.callback = callback
        #: Whether :meth:`cancel` withdrew the event before it fired.
        self.cancelled = False
        #: Whether the callback already fired.
        self.executed = False
        #: Silent firings left before the callback runs (0: none).
        self.repeat = 0
        #: Picoseconds between silent firings (read while ``repeat > 0``).
        self.period = 0

    def cancel(self) -> bool:
        """Prevent the event from firing.  Idempotent.

        Cancelling an event that already fired — or a stale handle kept
        across a checkpoint restore, whose simulator no longer owns the
        event — is a safe no-op.  Returns True only when this call
        actually withdrew a pending event.
        """
        if self.executed or self.cancelled:
            return False
        self.cancelled = True
        return True


class Simulator:
    """The discrete-event kernel.

    Typical use::

        sim = Simulator()
        sim.schedule(ns(10), lambda: print("fired at", sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        #: The calendar: a heap of the distinct pending times, and each
        #: time's FIFO bucket of entries (an :class:`EventHandle`, or a
        #: bare callback from :meth:`call_soon`) in seq order.  A bucket
        #: may sit empty until the drain loop or :meth:`next_event_time`
        #: retires it.
        self._times: list[int] = []
        self._buckets: dict[int, deque] = {}
        #: Entries queued in all buckets, cancelled ones included.
        self._depth = 0
        self._seq = 0
        self._now = 0
        self._events_processed = 0
        self._running = False
        self._queue_hwm = 0
        self._profiler = None
        #: The run's trace recorder (a
        #: :class:`~repro.sim.tracing.TraceRecorder`), or None when
        #: tracing is off.  Every component that records reads it here,
        #: so one assignment attaches or detaches tracing everywhere;
        #: once events are queued, attach with :meth:`attach_tracer`.
        self.tracer = None
        #: Called after :meth:`attach_tracer` sets a tracer: components
        #: that skip per-event calls while untraced (a core's silent
        #: issue runs) take them up again.
        self.trace_listeners: list[Callable[[], None]] = []

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queued events not cancelled, :meth:`call_soon`
        runs included."""
        return sum(1 for bucket in self._buckets.values() for entry in bucket
                   if type(entry) is not EventHandle or not entry.cancelled)

    @property
    def queue_depth_high_water(self) -> int:
        """The deepest the event queue has ever been (cancelled entries
        included)."""
        return self._queue_hwm

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay_ps`` picoseconds from now."""
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule in the past (delay {delay_ps} ps)")
        return self.schedule_at(self._now + delay_ps, callback)

    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; simulation time is already {self._now} ps"
            )
        event = EventHandle(callback)
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            bucket = self._buckets[time_ps] = deque()
            heappush(self._times, time_ps)
        bucket.append(event)
        self._seq += 1
        depth = self._depth = self._depth + 1
        if depth > self._queue_hwm:
            self._queue_hwm = depth
        return event

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the current time, after every event already due.

        It runs exactly where ``schedule(0, callback)`` would run it —
        the call takes the next sequence number and joins the back of
        the bucket at ``now`` — and it counts as an executed event, but
        the bucket holds the bare callback, with no
        :class:`EventHandle`, so it cannot be cancelled.  It counts
        towards :attr:`pending_events` and the queue high-water mark
        like the handle it replaces.
        """
        now = self._now
        bucket = self._buckets.get(now)
        if bucket is None:
            bucket = self._buckets[now] = deque()
            heappush(self._times, now)
        bucket.append(callback)
        self._seq += 1
        depth = self._depth = self._depth + 1
        if depth > self._queue_hwm:
            self._queue_hwm = depth

    def next_event_time(self) -> int | None:
        """Firing time of the next pending event, or None when idle.

        Skims cancelled events off the head of the queue, and retires
        the buckets that leaves empty, as a side effect, exactly where
        the drain loop would discard them, so checkpoint policies can
        peek without perturbing the execution trajectory.
        """
        times = self._times
        buckets = self._buckets
        while times:
            time_ps = times[0]
            bucket = buckets[time_ps]
            while bucket:
                head = bucket[0]
                if type(head) is not EventHandle or not head.cancelled:
                    return time_ps
                bucket.popleft()
                self._depth -= 1
                if self._profiler is not None:
                    self._profiler.on_cancelled_pop()
            del buckets[time_ps]
            heappop(times)
        return None

    def _drain(self, until_ps: int | None = None, max_events: int | None = None) -> int:
        """The event loop: fire queued events in ``(time, seq)`` order.

        Stops when the queue is empty, when the next event lies after
        ``until_ps``, or once ``max_events`` events have fired;
        cancelled events are discarded as they reach the head.  The one
        entry source is the earliest bucket, taken front to back; once
        it is empty the loop retires it and enters the next time's.
        The clock moves to a bucket's time only when a live entry in it
        fires, so a time that holds only cancelled events leaves ``now``
        alone.  A callback may call :meth:`next_event_time`, which
        retires the emptied current bucket, and then open a new bucket
        at the same time; so the loop retires a bucket only while it is
        still the one registered for its time.  A bare callback from
        :meth:`call_soon` simply runs.  An armed handle (``repeat > 0``)
        fires silently: it counts as an executed event and moves to the
        back of the bucket one ``period`` later under the next sequence
        number, without a call (see :class:`EventHandle`).  The live
        depth drops before each call, so a push the callback makes
        reads the right high-water mark.
        Returns the number of events fired.  The loop's state lives in
        locals, and the call branches once on whether a profiler is
        installed: the profiled branch also keeps the profiler's
        run-length event ledger, with its state hoisted into locals too
        — silent firings and ``call_soon`` runs are ledgered under their
        callback's key — and wall-times every ``wall_sample_every``-th
        event.  Its per-event cost is what
        ``benchmarks/bench_observer_overhead.py`` budgets.

        Both loops are ``while True:`` with every exit a ``break``: on
        CPython 3.11 a conditional loop test compiles to a
        ``POP_JUMP_BACKWARD_IF_*`` back-edge, which does not count
        toward quickening, and this function is entered too rarely for
        its entries alone to specialise it
        (``tests/sim/test_engine_properties.py``).
        """
        if max_events is not None and max_events < 1:
            return 0
        times = self._times
        buckets = self._buckets
        get = buckets.get
        pop = heappop
        push = heappush
        handle = EventHandle
        until = inf if until_ps is None else until_ps
        limit = -1 if max_events is None else max_events
        executed = 0
        # No bucket entered yet: ``get(None)`` is never ``()``.
        time_ps = None
        bucket = ()
        profiler = self._profiler
        if profiler is None:
            try:
                while True:
                    if not bucket:
                        if get(time_ps) is bucket:
                            del buckets[time_ps]
                            pop(times)
                        if not times or times[0] > until:
                            break
                        time_ps = times[0]
                        bucket = buckets[time_ps]
                        take = bucket.popleft
                        continue
                    callback = take()
                    if type(callback) is handle:
                        event = callback
                        if event.cancelled:
                            self._depth -= 1
                            continue
                        self._now = time_ps
                        if event.repeat:
                            event.repeat -= 1
                            later = time_ps + event.period
                            dest = get(later)
                            if dest is None:
                                dest = buckets[later] = deque()
                                push(times, later)
                            dest.append(event)
                            self._seq += 1
                            executed += 1
                            if executed == limit:
                                break
                            continue
                        event.executed = True
                        callback = event.callback
                    self._depth -= 1
                    executed += 1
                    callback()
                    if executed == limit:
                        break
            finally:
                self._events_processed += executed
            return executed
        buf = profiler._buf
        stride = profiler._sample_every
        after_event = profiler.after_event
        before = profiler._events
        next_sample = stride - before % stride
        # One compare per event covers both the sampling stride and the
        # event limit: ``mark`` is whichever of the two comes first.
        mark = next_sample if limit < 0 else min(next_sample, limit)
        last_key = profiler._rle_key
        # The open run holds events run_start+1 .. executed.
        run_start = -profiler._rle_count
        cancelled = 0
        try:
            while True:
                if not bucket:
                    if get(time_ps) is bucket:
                        del buckets[time_ps]
                        pop(times)
                    if not times or times[0] > until:
                        break
                    time_ps = times[0]
                    bucket = buckets[time_ps]
                    take = bucket.popleft
                    continue
                callback = take()
                silent = 0
                if type(callback) is handle:
                    event = callback
                    if event.cancelled:
                        self._depth -= 1
                        cancelled += 1
                        continue
                    self._now = time_ps
                    callback = event.callback
                    silent = event.repeat
                    if silent:
                        event.repeat -= 1
                        later = time_ps + event.period
                        dest = get(later)
                        if dest is None:
                            dest = buckets[later] = deque()
                            push(times, later)
                        dest.append(event)
                        self._seq += 1
                    else:
                        event.executed = True
                        self._depth -= 1
                else:
                    self._depth -= 1
                executed += 1
                try:
                    key = callback.__code__
                except AttributeError:  # a callable object: key by itself
                    key = callback
                if key is not last_key:
                    if executed - 1 > run_start:
                        buf.append((last_key, executed - 1 - run_start))
                    last_key = key
                    run_start = executed - 1
                if executed != mark:
                    if not silent:
                        callback()
                    continue
                if executed == next_sample:
                    # A silent firing on a sample mark is a sample.
                    next_sample += stride
                    started = perf_counter()
                    if not silent:
                        callback()
                    after_event(key, started)
                elif not silent:
                    callback()
                if executed == limit:
                    break
                mark = next_sample if limit < 0 else min(next_sample, limit)
        finally:
            self._events_processed += executed
            profiler._events = before + executed
            profiler._rle_key = last_key
            profiler._rle_count = executed - run_start
            profiler._cancelled += cancelled
        return executed

    def step(self) -> bool:
        """Run the single next event.  Returns False if the queue is empty."""
        return self._drain(max_events=1) == 1

    def run(self, max_events: int | None = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("re-entrant call to Simulator.run()")
        self._running = True
        try:
            return self._drain(max_events=max_events)
        finally:
            self._running = False

    def run_until(self, time_ps: int) -> int:
        """Run all events with timestamp <= ``time_ps``; advance time there.

        Returns the number of events executed by this call.
        """
        if time_ps < self._now:
            raise SimulationError(
                f"cannot run backwards to {time_ps} ps from {self._now} ps"
            )
        if self._running:
            raise SimulationError("re-entrant call to Simulator.run_until()")
        self._running = True
        try:
            executed = self._drain(until_ps=time_ps)
        finally:
            self._running = False
        self._now = max(self._now, time_ps)
        return executed

    def run_for(self, duration_ps: int) -> int:
        """Run for ``duration_ps`` picoseconds of simulated time."""
        return self.run_until(self._now + duration_ps)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @contextmanager
    def profile(self, **profiler_options: Any) -> "Iterator[SimProfile]":
        """Profile the simulator for the duration of a ``with`` block.

        Yields a :class:`~repro.obs.profiling.SimProfile` that is filled
        in as events execute and sealed (wall time measured) on exit::

            with sim.profile() as profile:
                sim.run()
            print(profile.render())

        Profiling nests: an inner ``profile()`` temporarily replaces the
        outer hook and restores it on exit.  When :attr:`tracer` is set,
        the profile also reports how many trace records its ring buffer
        evicted during the window (``trace_dropped_events``), so
        flight-recorder truncation is visible instead of silent.  A
        :meth:`hand_over` moves an open profile to the successor kernel:
        its events, queue pushes and simulated time then sum over every
        kernel it ran on, and the block closes it on whichever kernel
        holds it when it exits.  Keyword arguments configure the
        :class:`~repro.obs.profiling.SimProfiler` (e.g.
        ``wall_sample_every`` for sparser wall-time sampling).
        """
        from repro.obs.profiling import SimProfiler

        profiler = SimProfiler(**profiler_options)
        tracer = self.tracer
        dropped_before = tracer.dropped if tracer is not None else 0
        profiler.outer = self._profiler
        self._profiler = profiler
        self._open_window(profiler)
        try:
            yield profiler.profile
        finally:
            kernel = profiler.kernel
            kernel._close_window(profiler)
            kernel._profiler = profiler.outer
            profiler.finish()
            if tracer is not None:
                profiler.profile.trace_dropped_events = (
                    tracer.dropped - dropped_before
                )

    def attach_tracer(self, tracer) -> None:
        """Set :attr:`tracer` mid-run, so it records every event from now.

        Each of :attr:`trace_listeners` is then called, in order.
        """
        self.tracer = tracer
        if tracer is not None:
            for listener in self.trace_listeners:
                listener()

    def _open_window(self, profiler) -> None:
        """Count ``profiler``'s queue pushes and time on this kernel
        from now, and let it sample this kernel's queue depth."""
        profiler.kernel = self
        profiler.window_base = (self._seq, self._now)
        profiler.attach_depth(lambda: self._depth)

    def _close_window(self, profiler) -> None:
        """Add this kernel's share of ``profiler``'s window to its profile."""
        seq, now = profiler.window_base
        profile = profiler.profile
        profile.queue_pushes += self._seq - seq
        profile.sim_time_ps += self._now - now
        profile.queue_depth_high_water = max(
            profile.queue_depth_high_water, self._queue_hwm)

    def hand_over(self, successor: "Simulator") -> None:
        """Move this kernel's run-level observers to ``successor``.

        A rollback replaces the whole system, kernel included; calling
        this once the rebuilt kernel has replayed keeps the run observed.
        The :attr:`tracer` moves (through :meth:`attach_tracer`, so the
        successor records every event from here), and so does every
        open profile (the
        installed one and the outer ones it replaced): each keeps its
        ledger, adds this kernel's share of its window, and counts on
        ``successor`` from its current state.
        """
        successor.attach_tracer(self.tracer)
        self.tracer = None
        profiler = successor._profiler = self._profiler
        self._profiler = None
        while profiler is not None:
            self._close_window(profiler)
            successor._open_window(profiler)
            profiler = profiler.outer

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish kernel health series on a metrics registry.

        Series: ``sim.events_processed``, ``sim.pending_events``,
        ``sim.queue_depth_hwm`` and ``sim.now_ps`` — all collected
        lazily, so registration adds no per-event cost.
        """
        registry.counter_fn("sim.events_processed",
                            lambda: self._events_processed)
        registry.gauge_fn("sim.pending_events", lambda: self.pending_events)
        registry.gauge_fn("sim.queue_depth_hwm", lambda: self._queue_hwm)
        registry.gauge_fn("sim.now_ps", lambda: self._now)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.checkpoint)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Canonical kernel state for a checkpoint bundle.

        The event queue itself is *not* serialized — queued callbacks
        are arbitrary closures.  Restore works by schedulable-state
        re-registration: the workload is rebuilt and replayed to
        ``events_processed``, which reproduces the queue exactly (the
        kernel is a pure function of its configuration); this state dict
        is then the proof obligation the replayed kernel must meet.
        """
        return {
            "now_ps": self._now,
            "seq": self._seq,
            "events_processed": self._events_processed,
            "pending_events": self.pending_events,
            "queue_depth_hwm": self._queue_hwm,
        }

    def restore_state(self, state: dict) -> None:
        """Verify a replayed kernel against checkpointed state.

        Called after the restore replay has re-registered and re-run the
        schedulable state; every field must already match (the queue is
        rebuilt by replay, never injected), so a mismatch means the
        replay diverged — a non-deterministic workload or a corrupted
        bundle — and raises ``SimulationError``.
        """
        mine = self.snapshot_state()
        for key, expected in state.items():
            if mine.get(key) != expected:
                raise SimulationError(
                    f"checkpoint restore diverged: sim.{key} is "
                    f"{mine.get(key)!r}, bundle says {expected!r}"
                )


class Process:
    """A coroutine-style process on top of the event kernel.

    The generator yields integer delays in picoseconds; the kernel resumes
    it after each delay.  This gives components with sequential behaviour
    (traffic generators, the measurement ADC, behavioural threads) a
    straight-line coding style::

        def body():
            yield ns(100)      # wait 100 ns
            do_something()
            yield ns(50)

        Process(sim, body())
    """

    def __init__(self, sim: Simulator, generator: Any, name: str = "process"):
        self._sim = sim
        self._generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        sim.call_soon(self._resume)

    def _resume(self) -> None:
        if self.finished:
            return
        try:
            delay = next(self._generator)
        except StopIteration as stop:
            self.finished = True
            self.result = getattr(stop, "value", None)
            return
        if not isinstance(delay, int) or delay < 0:
            raise SimulationError(
                f"process {self.name!r} yielded invalid delay {delay!r}"
            )
        self._sim.schedule(delay, self._resume)
