"""Watchdog supervision: deadlines, heartbeats, and a recovery ladder.

The hardware Swallow grid has no shared memory and no global OS — a
wedged task is invisible unless something *watches* it.  The watchdog
is that something: it periodically fingerprints every watched task's
progress (instructions retired, restart generation, heartbeats, or a
caller-supplied progress probe) and fires when a task misses its
deadline or stops making progress.

Firing climbs a two-rung recovery ladder:

1. **Replace** — declare the task's core dead (the fail-stop
   assumption) and heal placement through the existing
   :meth:`~repro.core.nos.NanoOS.handle_core_failure` path, exactly as
   if a fault campaign had killed the core.
2. **Rollback** — if the task was already replaced once (or healing is
   unavailable / out of budget) the stall is not the core's fault;
   raise :class:`RollbackSignal` so the run harness
   (:class:`repro.checkpoint.ResumableRun`) rolls back to the last
   checkpoint and replays with the offending fault masked.

Every action is recorded in :attr:`Watchdog.actions` with simulation
timestamps, so the eventual :class:`~repro.checkpoint.RecoveryReport`
is deterministic: the same configuration produces byte-identical
ladders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.sim import us
from repro.xs1.errors import ResourceError

if TYPE_CHECKING:
    from repro.core.nos import NanoOS, TaskHandle
    from repro.core.platform import SwallowSystem
    from repro.obs.metrics import MetricsRegistry


class RollbackSignal(Exception):
    """Rung 2 of the recovery ladder: replay from the last checkpoint.

    Raised out of the watchdog's periodic check (and therefore out of
    :meth:`Simulator.step`); the run harness catches it, masks the
    suspect fault, and replays.  Carries the stalled task for the
    recovery report.
    """

    def __init__(self, reason: str, task_id: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.task_id = task_id


@dataclass
class _Watch:
    """Supervision record of one task."""

    handle: "TaskHandle"
    #: Caller-supplied progress probe; its value changing between two
    #: checks counts as progress.  ``None`` falls back to the built-in
    #: fingerprint (restarts, done, instructions retired, heartbeats).
    progress: Callable[[], object] | None
    #: Absolute completion deadline in picoseconds (``None`` = none).
    deadline_ps: int | None
    #: Consecutive no-progress checks tolerated before firing.
    stall_checks: int
    #: Optional completion predicate: once true, supervision ends even
    #: if the task is still running (e.g. a consumer that finished its
    #: payload and is merely draining late retransmissions).
    until: Callable[[], bool] | None = None
    fingerprint: object = None
    stalled: int = 0
    #: How many times the ladder's replace rung already ran for this
    #: task; a second fire escalates straight to rollback.
    escalations: int = 0
    fired: int = 0


class Watchdog:
    """Periodic progress supervision over NanoOS tasks."""

    def __init__(
        self,
        system: "SwallowSystem",
        nos: "NanoOS | None" = None,
        check_every_us: float = 50.0,
    ):
        self.system = system
        self.nos = nos
        self.check_every_us = check_every_us
        self.check_every_ps = us(check_every_us)
        self.watches: dict[int, _Watch] = {}
        self.heartbeats: dict[int, int] = {}
        self.fired = 0
        self.checks = 0
        #: Firings whose cause was a missed completion deadline.
        self.deadline_misses = 0
        #: Deterministic ladder journal: one dict per action, in firing
        #: order, with simulation timestamps.
        self.actions: list[dict] = []
        self._armed = False

    # -- registration -------------------------------------------------------

    def watch(
        self,
        handle: "TaskHandle",
        progress: Callable[[], object] | None = None,
        deadline_us: float | None = None,
        stall_checks: int = 3,
        until: Callable[[], bool] | None = None,
    ) -> None:
        """Supervise ``handle``; see module docstring for semantics."""
        if stall_checks < 1:
            raise ValueError("stall_checks must be >= 1")
        if handle.task_id in self.watches:
            raise ValueError(f"task {handle.task_id} already watched")
        self.watches[handle.task_id] = _Watch(
            handle=handle,
            progress=progress,
            deadline_ps=None if deadline_us is None else us(deadline_us),
            stall_checks=stall_checks,
            until=until,
        )

    def heartbeat(self, task_id: int) -> None:
        """Task-reported liveness; bump the task's heartbeat counter.

        Tasks call this from their own bodies (via closure); a changing
        heartbeat count is progress even when no instructions retire.
        """
        self.heartbeats[task_id] = self.heartbeats.get(task_id, 0) + 1

    def arm(self) -> None:
        """Start the periodic check (call once, after registering watches)."""
        if self._armed:
            raise RuntimeError("watchdog already armed")
        self._armed = True
        self.system.sim.schedule(self.check_every_ps, self._check)

    # -- the periodic check -------------------------------------------------

    def _fingerprint(self, watch: _Watch) -> object:
        if watch.progress is not None:
            return watch.progress()
        handle = watch.handle
        thread = handle.thread
        return (
            handle.restarts,
            handle.done,
            thread.instructions_executed if thread is not None else -1,
            self.heartbeats.get(handle.task_id, 0),
        )

    def _check(self) -> None:
        self.checks += 1
        outstanding = False
        for task_id in sorted(self.watches):
            watch = self.watches[task_id]
            if watch.handle.done or (
                watch.until is not None and watch.until()
            ):
                continue
            outstanding = True
            fingerprint = self._fingerprint(watch)
            if fingerprint != watch.fingerprint:
                watch.fingerprint = fingerprint
                watch.stalled = 0
            else:
                watch.stalled += 1
            overdue = (
                watch.deadline_ps is not None
                and self.system.sim.now >= watch.deadline_ps
            )
            if overdue or watch.stalled >= watch.stall_checks:
                watch.stalled = 0
                self._fire(watch, "deadline" if overdue else "stall")
        if outstanding:
            # Keeps the event queue alive while everything else is
            # blocked — a fully wedged system would otherwise go idle
            # silently instead of being detected.
            self.system.sim.schedule(self.check_every_ps, self._check)
        else:
            self._armed = False

    def _fire(self, watch: _Watch, cause: str) -> None:
        self.fired += 1
        watch.fired += 1
        if cause == "deadline":
            self.deadline_misses += 1
        handle = watch.handle
        now = self.system.sim.now
        tracer = self.system.sim.tracer
        if tracer is not None:
            tracer.record(now, "watchdog", "watchdog.fired", handle.task_id,
                          cause)
        if (
            self.nos is not None
            and watch.escalations == 0
            and not handle.core.failed
        ):
            try:
                replaced = self.nos.handle_core_failure(handle.core)
            except ResourceError as error:
                self.actions.append({
                    "time_ps": now,
                    "task_id": handle.task_id,
                    "cause": cause,
                    "rung": "replace_failed",
                    "detail": str(error),
                })
            else:
                watch.escalations += 1
                self.actions.append({
                    "time_ps": now,
                    "task_id": handle.task_id,
                    "cause": cause,
                    "rung": "replace",
                    "replaced": len(replaced),
                })
                return
        self.actions.append({
            "time_ps": now,
            "task_id": handle.task_id,
            "cause": cause,
            "rung": "rollback",
        })
        raise RollbackSignal(
            f"task {handle.task_id} made no progress ({cause}) at {now} ps",
            task_id=handle.task_id,
        )

    # -- observability ------------------------------------------------------

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish ``watchdog.fired`` / ``watchdog.checks`` /
        ``watchdog.watched`` series (lazily collected)."""
        registry.counter_fn("watchdog.fired", lambda: self.fired)
        registry.counter_fn("watchdog.checks", lambda: self.checks)
        registry.counter_fn(
            "watchdog.deadline_miss", lambda: self.deadline_misses
        )

        def escalations(emit) -> None:
            # One ``watchdog.escalations{stage=...}`` series per recovery
            # rung actually exercised, from the deterministic ladder
            # journal — nothing is emitted for rungs never climbed.
            by_stage: dict[str, int] = {}
            for action in self.actions:
                stage = action["rung"]
                by_stage[stage] = by_stage.get(stage, 0) + 1
            for stage in sorted(by_stage):
                emit("watchdog.escalations", {"stage": stage}, by_stage[stage])

        registry.register_collector(escalations)
        registry.gauge_fn(
            "watchdog.watched",
            lambda: sum(1 for w in self.watches.values() if not w.handle.done),
        )

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical supervision state for a checkpoint bundle."""
        return {
            "armed": self._armed,
            "checks": self.checks,
            "fired": self.fired,
            "deadline_misses": self.deadline_misses,
            "heartbeats": {
                str(task_id): count
                for task_id, count in sorted(self.heartbeats.items())
            },
            "watches": {
                str(task_id): {
                    "stalled": watch.stalled,
                    "escalations": watch.escalations,
                    "fired": watch.fired,
                    "fingerprint": repr(watch.fingerprint),
                    "done": watch.handle.done,
                }
                for task_id, watch in sorted(self.watches.items())
            },
            "actions": [dict(action) for action in self.actions],
        }

    def restore_state(self, state: dict) -> None:
        """Verify a replayed watchdog against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, "watchdog")

    def __repr__(self) -> str:
        return (
            f"<Watchdog {len(self.watches)} watched, "
            f"checks={self.checks} fired={self.fired}>"
        )
