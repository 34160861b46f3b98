"""Differential property tests of the event kernel.

Seeded random programs of schedules, nested schedules, ``call_soon``
runs (at top level and nested, interleaved with ``schedule(0)`` and
``schedule_at(now)``), armed handles (random ``repeat`` and
``period``, disarmed or cancelled while armed), cancels (including
cancels of events that already fired) and peeks at
``next_event_time`` and ``pending_events`` run through every way of
driving the :class:`~repro.sim.engine.Simulator`: ``run()``, chunked
``run(max_events=k)``, ``run_until`` slices, a ``step()`` loop and the
resumable run's ``_drain(until_ps, max_events)`` chunks, each
without a profiler and under ``sim.profile()`` at two sampling
strides.  Every drive must match a small reference kernel, defined
here, that keeps the straightforward heap of ``dataclass(order=True)``
entries drained one ``step()`` at a time, plays each ``call_soon`` as
``schedule(0, ...)``, and re-queues an armed handle with an ordinary
callback that reschedules itself: the same firing order, the same
``now`` at every firing, after every drive chunk and at the end, the
same ``pending_events`` and ``next_event_time`` at every peek, and the
same ``events_processed``, sequence counter, queue high-water mark and
cancelled pops; profiled, also the same event ledger, wall samples and
queue-depth timeline.
"""

from __future__ import annotations

import dis
import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@dataclass(order=True)
class _RefEvent:
    time: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    executed: bool = field(default=False, compare=False)

    def cancel(self) -> bool:
        if self.executed or self.cancelled:
            return False
        self.cancelled = True
        return True


class ReferenceKernel:
    """The reference twin: one heap pop per ``step()``, no fast paths."""

    def __init__(self) -> None:
        self.queue: list[_RefEvent] = []
        self.seq = 0
        self.now = 0
        self.events_processed = 0
        self.queue_depth_high_water = 0
        self.cancelled_pops = 0
        #: Queue depth after each event's callback, by event number.
        self.depth_after: dict[int, int] = {}
        #: ``now`` once each event has fired, by event number.
        self.now_after: dict[int, int] = {0: 0}

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> _RefEvent:
        return self.schedule_at(self.now + delay_ps, callback)

    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> _RefEvent:
        event = _RefEvent(time_ps, self.seq, callback)
        self.seq += 1
        heapq.heappush(self.queue, event)
        self.queue_depth_high_water = max(self.queue_depth_high_water,
                                          len(self.queue))
        return event

    def call_soon(self, callback: Callable[[], None]) -> None:
        self.schedule(0, callback)

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self.queue if not event.cancelled)

    def next_event_time(self) -> int | None:
        while self.queue:
            if not self.queue[0].cancelled:
                return self.queue[0].time
            heapq.heappop(self.queue)
            self.cancelled_pops += 1
        return None

    def step(self) -> bool:
        while self.queue:
            event = heapq.heappop(self.queue)
            if event.cancelled:
                self.cancelled_pops += 1
                continue
            self.now = event.time
            self.events_processed += 1
            event.executed = True
            event.callback()
            self.depth_after[self.events_processed] = len(self.queue)
            self.now_after[self.events_processed] = self.now
            return True
        return False

    def depth_timeline(self, stride: int, every: int) -> list[tuple[int, int]]:
        """The profiler's depth timeline: the depth after every
        ``every``-th wall-sampled event, keyed by event number."""
        step = stride * every
        return [(n, self.depth_after[n])
                for n in range(step, self.events_processed + 1, step)]

    def run(self) -> None:
        while self.step():
            pass

    def schedule_armed(self, delay_ps: int, callback: Callable[[], None],
                       repeat: int, period: int) -> "_RefArmed":
        return _RefArmed(self, delay_ps, callback, repeat, period)


class _RefArmed:
    """An armed handle in the reference: a callback that reschedules
    itself ``period`` later until ``repeat`` runs out, then calls."""

    def __init__(self, kernel: ReferenceKernel, delay_ps: int,
                 callback: Callable[[], None], repeat: int, period: int) -> None:
        self.kernel = kernel
        self.callback = callback
        self.repeat = repeat
        self.period = period
        self.event = kernel.schedule(delay_ps, self._fire)

    def _fire(self) -> None:
        if self.repeat:
            self.repeat -= 1
            self.event = self.kernel.schedule(self.period, self._fire)
        else:
            self.callback()

    def cancel(self) -> bool:
        return self.event.cancel()


def _schedule_armed(sim: Simulator, delay_ps: int, callback: Callable[[], None],
                    repeat: int, period: int):
    handle = sim.schedule(delay_ps, callback)
    handle.repeat = repeat
    handle.period = period
    return handle


# A program is a list of actions run before the kernel starts; a
# scheduled event runs its own list of actions when it fires.
#   ("sched", delay_ps, actions)   schedule a (possibly nested) event
#   ("at_now", actions)            the same, by schedule_at(now)
#   ("soon", actions)              the same, by call_soon (no handle)
#   ("arm", delay_ps, repeat, period, actions)
#                                  the same, armed: it fires silently
#                                  ``repeat`` times, ``period`` apart, first
#   ("cancel", index)              cancel the index-th handle made so far
#   ("disarm", index)              set the index-th handle's repeat to 0
#   ("peek",)                      record next_event_time(), pending_events
_leaf = st.one_of(
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("disarm"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("peek")),
)
_delays = st.integers(min_value=0, max_value=12)


def _scheduling(children):
    return st.one_of(
        st.tuples(st.just("sched"), _delays, children),
        st.tuples(st.just("at_now"), children),
        st.tuples(st.just("soon"), children),
        st.tuples(st.just("arm"), _delays, st.integers(min_value=1, max_value=4),
                  st.integers(min_value=0, max_value=5), children),
    )


actions = st.recursive(
    st.lists(_leaf, max_size=3),
    lambda children: st.lists(st.one_of(_leaf, _scheduling(children)), max_size=5),
    max_leaves=40,
)
programs = st.tuples(
    st.lists(_scheduling(actions), min_size=1, max_size=8),
    st.lists(_leaf, max_size=3),
)


def play(program, kernel) -> list[tuple]:
    """Load ``program`` into ``kernel``; returns the observation log the
    kernel's events append to as they fire."""
    log: list[tuple] = []
    handles: list = []
    counter = iter(range(1 << 30))
    schedule_armed = (kernel.schedule_armed if isinstance(kernel, ReferenceKernel)
                      else partial(_schedule_armed, kernel))

    def perform(action_list) -> None:
        for action in action_list:
            if action[0] in ("sched", "at_now", "soon", "arm"):
                children = action[-1]
                ident = next(counter)

                def fire(ident=ident, children=children) -> None:
                    log.append(("fire", ident, kernel.now))
                    perform(children)

                if action[0] == "sched":
                    handles.append(kernel.schedule(action[1], fire))
                elif action[0] == "at_now":
                    handles.append(kernel.schedule_at(kernel.now, fire))
                elif action[0] == "soon":
                    kernel.call_soon(fire)
                else:
                    handles.append(schedule_armed(action[1], fire, action[2],
                                                  action[3]))
            elif action[0] == "cancel":
                if handles:
                    index = action[1] % len(handles)
                    log.append(("cancel", index, handles[index].cancel()))
            elif action[0] == "disarm":
                if handles:
                    handles[action[1] % len(handles)].repeat = 0
            else:
                log.append(("peek", kernel.next_event_time(),
                            kernel.pending_events))

    roots, top_level = program
    perform(roots)
    perform(top_level)
    return log


# A drive calls ``check(floor)`` after every chunk: ``now`` must then be
# the reference's ``now`` after as many events, or ``floor`` (the time a
# ``run_until`` ran to) if that is later.  It returns the last floor.
def _run(sim: Simulator, chunk: int, check) -> int:
    sim.run()
    check(0)
    return 0


def _chunked(sim: Simulator, chunk: int, check) -> int:
    while sim.run(max_events=chunk):
        check(0)
    return 0


def _until_slices(sim: Simulator, chunk: int, check) -> int:
    horizon = 0
    while sim.next_event_time() is not None:
        horizon += chunk
        sim.run_until(horizon)
        check(horizon)
    return horizon


def _steps(sim: Simulator, chunk: int, check) -> int:
    while sim.step():
        check(0)
    return 0


def _marks(sim: Simulator, chunk: int, check) -> int:
    """The resumable run's drive shape: peek, then drain up to a time mark
    and an event mark at once (``ResumableRun._drive``)."""
    horizon = 0
    while (head := sim.next_event_time()) is not None:
        if head > horizon:
            horizon += chunk
            continue
        sim._drain(until_ps=horizon, max_events=chunk)
        check(0)
    return 0


DRIVES = (_run, _chunked, _until_slices, _steps, _marks)


@settings(max_examples=150, deadline=None)
@given(program=programs, chunk=st.integers(min_value=1, max_value=5))
# A peek from the last event at a time retires that time's emptied
# bucket; the drain loop must not retire it again, nor the bucket a
# later push opens at the same time.
@example(program=([("at_now", [("peek",)])], []), chunk=1)
@example(program=([("at_now", [("peek",), ("sched", 0, [])])], []), chunk=1)
def test_every_drive_matches_the_reference_kernel(program, chunk):
    reference = ReferenceKernel()
    expected = play(program, reference)
    pops_before_run = reference.cancelled_pops
    reference.run()
    for drive in DRIVES:
        for stride in (None, 1, 3):      # unprofiled, then two sampling strides
            sim = Simulator()
            log = play(program, sim)
            where = f"{drive.__name__} wall_sample_every={stride}"

            def check(floor: int) -> None:
                assert sim.now == max(
                    reference.now_after[sim.events_processed], floor), where

            if stride is not None:
                with sim.profile(wall_sample_every=stride,
                                 depth_timeline_every=2) as profile:
                    floor = drive(sim, chunk, check)
                # Silent firings and call_soon runs are ledgered under
                # their callback's key, and one on a sample mark still
                # counts as a sample.
                assert profile.events_total == reference.events_processed, where
                assert set(profile.events_by_source) <= {"play.perform.fire"}
                assert profile.wall_sampled_events == \
                    reference.events_processed // stride, where
                assert profile.depth_timeline == \
                    reference.depth_timeline(stride, 2), where
                assert profile.queue_pops_cancelled == \
                    reference.cancelled_pops - pops_before_run, where
            else:
                floor = drive(sim, chunk, check)
            assert sim.now == max(reference.now, floor), where
            assert log == expected, where
            assert sim.events_processed == reference.events_processed, where
            assert sim.snapshot_state()["seq"] == reference.seq, where
            assert sim.queue_depth_high_water == \
                reference.queue_depth_high_water, where
            assert sim.pending_events == 0, where


def test_max_events_below_one_runs_nothing():
    sim = Simulator()
    sim.schedule(0, lambda: None)
    assert sim.run(max_events=0) == 0
    assert sim.events_processed == 0
    assert sim.run(max_events=1) == 1


def test_a_lane_run_honours_until_ps_like_a_heap_entry():
    """A ``call_soon`` run (a bare callback in the bucket at ``now``)
    stops at ``until_ps`` like the ``schedule(0)`` handle it stands for."""
    for kernel in ("call_soon", "schedule"):
        sim = Simulator()
        sim.run_until(10)
        fired = []
        if kernel == "call_soon":
            sim.call_soon(lambda: fired.append(sim.now))
        else:
            sim.schedule(0, lambda: fired.append(sim.now))
        assert sim._drain(until_ps=5) == 0, kernel
        assert (fired, sim.pending_events, sim.next_event_time()) == \
            ([], 1, 10), kernel
        assert sim.run() == 1 and fired == [10], kernel


def test_a_time_holding_only_cancelled_events_leaves_the_clock():
    """Discarding the cancelled events of a time before an ``until_ps``
    mark, or at the end of the queue, does not move ``now`` there."""
    sim = Simulator()
    sim.schedule(10, lambda: None).cancel()
    sim.schedule(10, lambda: None).cancel()
    sim.schedule(30, lambda: None)
    assert sim._drain(until_ps=20) == 0
    assert (sim.now, sim.pending_events, sim.next_event_time()) == (0, 1, 30)
    sim.schedule(50, lambda: None).cancel()
    assert sim.run() == 1
    assert (sim.now, sim.pending_events, sim.next_event_time()) == (30, 0, None)


def test_drain_has_no_conditional_back_edge():
    """Every back-edge of ``Simulator._drain`` is an unconditional jump.

    On CPython 3.11 a function's bytecode specialises ("quickens") once
    its warm-up counter reaches 8, and only ``RESUME`` (a call) and
    ``JUMP_BACKWARD`` advance it; ``POP_JUMP_BACKWARD_IF_TRUE``, what a
    ``while queue:`` loop test compiles to, does not.  ``_drain`` is
    entered once per ``run()``, so with such a back-edge it stays
    unspecialised until a process's eighth run, and a one-shot
    ``python -m repro run`` never specialises it.  Measured on a shared
    2-CPU x86 host (CPython 3.11.7, raw host seconds, five fresh
    processes each): the first ``system.run()`` of the end-to-end
    benchmark's ``rt_dvfs_64`` workload, which queues nothing on the
    lane, took 0.33 s best and 0.42 s median with the ``while queue:``
    loop, and 0.27 s best and 0.29 s median with ``while True:``.  The
    opcode exists only on 3.11, so elsewhere this test checks nothing.
    """
    conditional = [instruction.opname
                   for instruction in dis.get_instructions(Simulator._drain)
                   if instruction.opname.startswith("POP_JUMP_BACKWARD_IF_")]
    assert conditional == []
