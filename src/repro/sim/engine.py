"""Discrete-event simulation engine.

A single global event queue ordered by (time, sequence number) drives every
component of the simulated Swallow system: core pipelines, network links,
switches and the energy-measurement ADC all schedule callbacks here.

The sequence number makes event ordering total and deterministic: events
scheduled earlier run earlier when timestamps tie, so a simulation is a
pure function of its configuration.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import SimProfile


class SimulationError(RuntimeError):
    """Raised for invalid scheduling or a wedged simulation."""


@dataclass
class KernelStats:
    """Process-wide kernel counters (all simulators, whole interpreter).

    The benchmark harness reads this to attribute events-per-second to
    each bench without instrumenting every ``Simulator`` it creates.

    ``events_replayed`` counts events re-executed inside a
    :func:`replay_window` — deterministic replay during a checkpoint
    restore or rollback.  Replay is reconstruction, not fresh work, so
    it is ledgered separately and never inflates events-per-second.
    """

    events_executed: int = 0
    events_replayed: int = 0


#: The interpreter-wide kernel ledger (see :class:`KernelStats`).
KERNEL_STATS = KernelStats()


@contextmanager
def replay_window() -> Iterator[None]:
    """Attribute kernel events executed inside the block to *replay*.

    Everything the block adds to ``KERNEL_STATS.events_executed`` is
    moved to ``KERNEL_STATS.events_replayed`` on exit, so profiles,
    heartbeats and the bench harness can report replayed events
    separately instead of counting reconstruction as fresh throughput.
    """
    before = KERNEL_STATS.events_executed
    try:
        yield
    finally:
        replayed = KERNEL_STATS.events_executed - before
        KERNEL_STATS.events_executed = before
        KERNEL_STATS.events_replayed += replayed


class EventHandle:
    """A scheduled event, returned by :meth:`Simulator.schedule`.

    The handle *is* the queued event: the heap holds ``(time, seq,
    handle)`` tuples, so heap comparisons run in C on the unique
    ``(time, seq)`` prefix and never reach the handle.
    """

    __slots__ = ("time", "callback", "cancelled", "executed")

    def __init__(self, time_ps: int, callback: Callable[[], None]):
        #: Absolute firing time of the event, in picoseconds.
        self.time = time_ps
        self.callback = callback
        #: Whether :meth:`cancel` withdrew the event before it fired.
        self.cancelled = False
        #: Whether the event already fired.
        self.executed = False

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
        self._queue: list[tuple[int, int, EventHandle]] = []
        self._seq = 0
        self._now = 0
        self._events_processed = 0
        self._running = False
        self._queue_hwm = 0
        self._profiler = None

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
        """Number of queued (non-cancelled) events."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    @property
    def queue_depth_high_water(self) -> int:
        """The deepest the event queue has ever been (cancelled included)."""
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
        event = EventHandle(time_ps, callback)
        queue = self._queue
        heappush(queue, (time_ps, self._seq, event))
        self._seq += 1
        if len(queue) > self._queue_hwm:
            self._queue_hwm = len(queue)
        return event

    def next_event_time(self) -> int | None:
        """Firing time of the next pending event, or None when idle.

        Skims cancelled events off the head of the queue as a side
        effect, so checkpoint policies can peek without perturbing the
        execution trajectory.
        """
        queue = self._queue
        while queue:
            time_ps, _, event = queue[0]
            if not event.cancelled:
                return time_ps
            heappop(queue)
            if self._profiler is not None:
                self._profiler.on_cancelled_pop()
        return None

    def _drain(self, until_ps: int | None = None, max_events: int | None = None) -> int:
        """The event loop: fire queued events in ``(time, seq)`` order.

        Stops when the queue is empty, when the next event lies after
        ``until_ps``, or once ``max_events`` events have fired; cancelled
        events are discarded as they reach the head.  Returns the number
        of events fired.  The loop's state lives in locals, and the call
        branches once on whether a profiler is installed: the profiled
        branch also keeps the profiler's run-length event ledger, with
        its state hoisted into locals too, and wall-times every
        ``wall_sample_every``-th callback.  Its per-event cost is what
        ``benchmarks/bench_observer_overhead.py`` budgets.
        """
        if max_events is not None and max_events < 1:
            return 0
        queue = self._queue
        pop = heappop
        until = inf if until_ps is None else until_ps
        limit = -1 if max_events is None else max_events
        executed = 0
        profiler = self._profiler
        if profiler is None:
            try:
                while queue:
                    entry = pop(queue)
                    event = entry[2]
                    if event.cancelled:
                        continue
                    if entry[0] > until:
                        heappush(queue, entry)
                        break
                    self._now = entry[0]
                    event.executed = True
                    executed += 1
                    event.callback()
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
            while queue:
                entry = pop(queue)
                event = entry[2]
                if event.cancelled:
                    cancelled += 1
                    continue
                if entry[0] > until:
                    heappush(queue, entry)
                    break
                self._now = entry[0]
                event.executed = True
                executed += 1
                try:
                    key = event.callback.__code__
                except AttributeError:  # a callable object: key by itself
                    key = event.callback
                if key is not last_key:
                    if executed - 1 > run_start:
                        buf.append((last_key, executed - 1 - run_start))
                    last_key = key
                    run_start = executed - 1
                if executed != mark:
                    event.callback()
                    continue
                if executed == next_sample:
                    next_sample += stride
                    started = perf_counter()
                    event.callback()
                    after_event(key, started)
                else:
                    event.callback()
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
        executed = 0
        try:
            executed = self._drain(max_events=max_events)
        finally:
            self._running = False
            KERNEL_STATS.events_executed += executed
        return executed

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
        executed = 0
        try:
            executed = self._drain(until_ps=time_ps)
        finally:
            self._running = False
            KERNEL_STATS.events_executed += executed
        self._now = max(self._now, time_ps)
        return executed

    def run_for(self, duration_ps: int) -> int:
        """Run for ``duration_ps`` picoseconds of simulated time."""
        return self.run_until(self._now + duration_ps)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @contextmanager
    def profile(self, tracer=None, **profiler_options: Any) -> "Iterator[SimProfile]":
        """Profile the simulator for the duration of a ``with`` block.

        Yields a :class:`~repro.obs.profiling.SimProfile` that is filled
        in as events execute and sealed (wall time measured) on exit::

            with sim.profile() as profile:
                sim.run()
            print(profile.render())

        Profiling nests: an inner ``profile()`` temporarily replaces the
        outer hook and restores it on exit.  With a ``tracer``
        (a :class:`~repro.sim.tracing.TraceRecorder`), the profile also
        reports how many trace records the recorder's ring buffer
        evicted during the window (``trace_dropped_events``), so
        flight-recorder truncation is visible instead of silent.
        Extra keyword arguments configure the
        :class:`~repro.obs.profiling.SimProfiler` (e.g.
        ``wall_sample_every`` for sparser wall-time sampling).
        """
        from repro.obs.profiling import SimProfiler

        profiler = SimProfiler(**profiler_options)
        profiler.attach_queue(self._queue)
        dropped_before = tracer.dropped if tracer is not None else 0
        seq_before = self._seq
        now_before = self._now
        previous = self._profiler
        self._profiler = profiler
        try:
            yield profiler.profile
        finally:
            self._profiler = previous
            profiler.finish(
                queue_pushes=self._seq - seq_before,
                queue_depth_high_water=self._queue_hwm,
                sim_time_ps=self._now - now_before,
            )
            if tracer is not None:
                profiler.profile.trace_dropped_events = (
                    tracer.dropped - dropped_before
                )

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
        sim.schedule(0, self._resume)

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
