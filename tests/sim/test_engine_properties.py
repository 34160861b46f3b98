"""Differential property tests of the event kernel.

Seeded random programs of schedules, nested schedules, cancels
(including cancels of events that already fired) and
``next_event_time`` peeks run through every way of driving the
:class:`~repro.sim.engine.Simulator`: ``run()``, chunked
``run(max_events=k)``, ``run_until`` slices and a ``step()`` loop, each
without a profiler and under ``sim.profile()`` at two sampling strides.  Every drive must match a
small reference kernel, defined here, that keeps the straightforward
heap of ``dataclass(order=True)`` entries drained one ``step()`` at a
time: the same firing order, the same ``now`` at every firing, and the
same ``events_processed``, sequence counter and queue high-water mark.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from hypothesis import given, settings
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

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> _RefEvent:
        event = _RefEvent(self.now + delay_ps, self.seq, callback)
        self.seq += 1
        heapq.heappush(self.queue, event)
        self.queue_depth_high_water = max(self.queue_depth_high_water,
                                          len(self.queue))
        return event

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
            return True
        return False

    def run(self) -> None:
        while self.step():
            pass


# A program is a list of actions run before the kernel starts; a
# scheduled event runs its own list of actions when it fires.
#   ("sched", delay_ps, actions)   schedule a (possibly nested) event
#   ("cancel", index)              cancel the index-th event scheduled so far
#   ("peek",)                      record next_event_time()
_leaf = st.one_of(
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("peek")),
)
actions = st.recursive(
    st.lists(_leaf, max_size=3),
    lambda children: st.lists(
        st.one_of(
            _leaf,
            st.tuples(st.just("sched"), st.integers(min_value=0, max_value=12),
                      children),
        ),
        max_size=5,
    ),
    max_leaves=40,
)
programs = st.tuples(
    st.lists(st.tuples(st.just("sched"), st.integers(min_value=0, max_value=12),
                       actions), min_size=1, max_size=8),
    st.lists(_leaf, max_size=3),
)


def play(program, kernel) -> list[tuple]:
    """Load ``program`` into ``kernel``; returns the observation log the
    kernel's events append to as they fire."""
    log: list[tuple] = []
    handles: list = []
    counter = iter(range(1 << 30))

    def perform(action_list) -> None:
        for action in action_list:
            if action[0] == "sched":
                _, delay, children = action
                ident = next(counter)

                def fire(ident=ident, children=children) -> None:
                    log.append(("fire", ident, kernel.now))
                    perform(children)

                handles.append(kernel.schedule(delay, fire))
            elif action[0] == "cancel":
                if handles:
                    index = action[1] % len(handles)
                    log.append(("cancel", index, handles[index].cancel()))
            else:
                log.append(("peek", kernel.next_event_time()))

    roots, top_level = program
    perform(roots)
    perform(top_level)
    return log


def _run(sim: Simulator, chunk: int) -> None:
    sim.run()


def _chunked(sim: Simulator, chunk: int) -> None:
    while sim.run(max_events=chunk):
        pass


def _until_slices(sim: Simulator, chunk: int) -> None:
    horizon = 0
    while sim.next_event_time() is not None:
        horizon += chunk
        sim.run_until(horizon)


def _steps(sim: Simulator, chunk: int) -> None:
    while sim.step():
        pass


DRIVES = (_run, _chunked, _until_slices, _steps)


@settings(max_examples=150, deadline=None)
@given(program=programs, chunk=st.integers(min_value=1, max_value=5))
def test_every_drive_matches_the_reference_kernel(program, chunk):
    reference = ReferenceKernel()
    expected = play(program, reference)
    pops_before_run = reference.cancelled_pops
    reference.run()
    for drive in DRIVES:
        for stride in (None, 1, 3):      # unprofiled, then two sampling strides
            sim = Simulator()
            log = play(program, sim)
            if stride is not None:
                with sim.profile(wall_sample_every=stride) as profile:
                    drive(sim, chunk)
                assert profile.events_total == reference.events_processed
                assert profile.wall_sampled_events == \
                    reference.events_processed // stride
                assert profile.queue_pops_cancelled == \
                    reference.cancelled_pops - pops_before_run
            else:
                drive(sim, chunk)
            where = f"{drive.__name__} wall_sample_every={stride}"
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
