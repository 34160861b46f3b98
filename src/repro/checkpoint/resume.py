"""Resumable runs: checkpointed execution, restore, rollback recovery.

:class:`ResumableRun` drives a rebuildable workload through the
kernel's one event loop, in chunks that end at the next checkpoint,
heartbeat or kill mark, capturing
:class:`~repro.checkpoint.snapshot.Snapshot` bundles at the policy's
boundaries.  A chunk never advances the clock past a time boundary (it
peeks the queue instead), so the checkpointed run executes the exact
same event sequence as an uninterrupted one — checkpointing is
observation, never perturbation.

Four ways a run ends:

* **completed** — the queue drained; the final report is byte-identical
  to an uninterrupted run of the same configuration.
* **killed** — ``kill_after_events`` was reached mid-run (simulating a
  crash; a process exits :data:`EXIT_KILLED`); resume later with
  :meth:`ResumableRun.open` or :meth:`ResumableRun.resume`, which rebuilds
  the workload from the bundle's setup, replays to the captured event
  count, verifies every layer against the bundle, and continues.
* **rollback** — a :class:`~repro.core.watchdog.RollbackSignal` escaped
  the watchdog: the suspect fault (the most recent unmasked injection)
  is masked, the newest retained checkpoint *preceding* that fault's
  injection is replayed (or the run restarts from t=0 if none is old
  enough), and execution continues.  Masked injections still fire as
  events — preserving sequence-number allocation, hence the pre-fault
  trajectory — but take no action.  The run's tracer and open profiles
  move to the rebuilt kernel after its replay
  (:meth:`~repro.sim.engine.Simulator.hand_over`), and the heartbeat
  reads the rebuilt system's metrics.
* **exhausted** — the runtime raised an
  :class:`~repro.xs1.errors.ExhaustedError` (a fault budget exhausted,
  a machine with no core or thread left): the run stops where it was
  raised, and its final report records the error text under
  ``"exhausted"`` beside the energy and metrics reached by then.  It is
  a result, not a crash: the sweep caches it and scores it
  ``survived: false``.  Any other
  :class:`~repro.xs1.errors.ResourceError` (a workload's ``send before
  setd``, say) is a bug in the workload and propagates.

Every recovery action lands in a :class:`RecoveryReport` whose
canonical JSON is deterministic: the same configuration yields the
same ladder, byte for byte.
"""

from __future__ import annotations

import json

from repro.checkpoint.policy import (
    DEFAULT_RETAIN,
    CheckpointPolicy,
    CheckpointStore,
)
from repro.checkpoint.snapshot import CheckpointError, Snapshot, canonical_json
from repro.checkpoint.workloads import RunContext, build_workload
from repro.core.watchdog import RollbackSignal
from repro.sim import us
from repro.xs1.errors import ExhaustedError

#: Exit code of a process whose run was killed mid-flight (EX_TEMPFAIL:
#: the run is resumable from its checkpoint store, not failed).
EXIT_KILLED = 75


class RecoveryReport:
    """The canonical outcome record of a resumable run."""

    def __init__(self, payload: dict):
        self.payload = payload

    def to_dict(self) -> dict:
        """The report as plain data."""
        return self.payload

    def to_json(self) -> str:
        """Canonical JSON — byte-stable across identical runs."""
        return canonical_json(self.payload)

    def render(self) -> str:
        """A human-readable summary."""
        p = self.payload
        final = p["final"]
        lines = [
            f"recovery report: {p['outcome']}",
            f"  rollbacks         {p['rollbacks']}",
            f"  checkpoints       {p['checkpoints']}",
            f"  final time        {final['time_ps'] / 1e6:.3f} us",
            f"  events processed  {final['events_processed']}",
            f"  delivered         {final['delivered']}"
            + (" (intact)" if final["delivered_ok"] else ""),
        ]
        for attempt in p["attempts"]:
            masked = attempt["masked_fault"]
            resumed = attempt["resumed_from"]
            origin = (
                f"checkpoint @ {resumed['events']} events"
                if resumed is not None else "restart from t=0"
            )
            lines.append(
                f"  rollback #{attempt['rollback']}: task "
                f"{attempt['task_id']} stalled; masked "
                f"{masked['kind']}[{masked['index']}] @ "
                f"{masked['at_us']} us; {origin}"
            )
            for action in attempt["watchdog_actions"]:
                lines.append(
                    f"    watchdog {action['rung']} task "
                    f"{action['task_id']} ({action['cause']}) at "
                    f"{action['time_ps'] / 1e6:.3f} us"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<RecoveryReport {self.payload['outcome']} "
            f"rollbacks={self.payload['rollbacks']}>"
        )


class ResumableRun:
    """Drive a rebuildable workload with checkpoints and recovery."""

    def __init__(
        self,
        workload: str,
        params: dict | None = None,
        policy: CheckpointPolicy | None = None,
        store: CheckpointStore | None = None,
        max_rollbacks: int = 3,
    ):
        self.workload = workload
        self.params = dict(params or {})
        self.policy = policy
        self.store = store
        self.max_rollbacks = max_rollbacks
        self.context: RunContext = build_workload(workload, self.params)
        #: Retained snapshots, oldest first (bounded by the policy).
        self.snapshots: list[Snapshot] = []
        self.captures = 0
        self.rollbacks = 0
        self.attempts: list[dict] = []
        self.killed = False
        #: The text of the ExhaustedError that ended the run, if one did.
        self.exhausted: str | None = None
        #: Events re-executed by deterministic replay (resume/rollback) —
        #: reconstruction, ledgered separately from fresh execution so
        #: profiles and heartbeats never report inflated events/sec.
        self.events_replayed = 0
        #: Fresh events executed by this run's drive loop.
        self.events_fresh = 0
        self._next_events_mark: int | None = None
        self._next_time_mark: int | None = None
        self._heartbeat = None
        self._beat_mark: int | None = None
        #: The bundle path :meth:`open` resumed from (None: a fresh run).
        self.resumed_from: str | None = None
        self._reset_marks()

    # -- setup record -------------------------------------------------------

    @property
    def setup(self) -> dict:
        """What a bundle must record to rebuild this run."""
        return {"workload": self.workload, "params": self.params}

    # -- checkpointing ------------------------------------------------------

    def _reset_marks(self) -> None:
        sim = self.context.system.sim
        if self.policy is not None and self.policy.every_events is not None:
            self._next_events_mark = (
                sim.events_processed + self.policy.every_events
            )
        else:
            self._next_events_mark = None
        if self.policy is not None and self.policy.every_us is not None:
            self._next_time_mark = sim.now + us(self.policy.every_us)
        else:
            self._next_time_mark = None

    def checkpoint(self) -> Snapshot:
        """Capture now; retain per policy; persist if a store is set."""
        snapshot = self.context.capture(setup=self.setup)
        self.captures += 1
        self.snapshots.append(snapshot)
        retain = (
            self.policy.retain if self.policy is not None else DEFAULT_RETAIN
        )
        del self.snapshots[:-retain]
        if self.store is not None:
            self.store.add(snapshot)
        return snapshot

    # -- the drive loop -----------------------------------------------------

    def _drive(self, kill_after_events: int | None = None) -> None:
        """Drain the kernel in chunks, capturing at policy boundaries.

        Each chunk is one :meth:`Simulator._drain` call that stops at
        the next time mark and at the nearest heartbeat, checkpoint or
        kill mark in events; the checks run between chunks, in that
        order, exactly where a one-event-at-a-time loop would run them.
        The event whose callback raises (a :class:`RollbackSignal`)
        is not counted in :attr:`events_fresh`.  Stops when the queue
        drains or (setting :attr:`killed`) once :attr:`events_fresh`
        reaches ``kill_after_events``: the kill point counts the run's
        fresh events, so a rollback (which calls this again) does not
        restart it.
        """
        sim = self.context.system.sim
        heartbeat = self._heartbeat
        while True:
            head = sim.next_event_time()
            if head is None:
                return
            if (
                self._next_time_mark is not None
                and head > self._next_time_mark
            ):
                self.checkpoint()
                while head > self._next_time_mark:
                    self._next_time_mark += us(self.policy.every_us)
                continue
            gaps = []
            if heartbeat is not None:
                gaps.append(self._beat_mark - self.events_fresh)
            if self._next_events_mark is not None:
                gaps.append(self._next_events_mark - sim.events_processed)
            if kill_after_events is not None:
                gaps.append(kill_after_events - self.events_fresh)
            before = sim.events_processed
            try:
                self.events_fresh += sim._drain(
                    until_ps=self._next_time_mark,
                    max_events=min(gaps) if gaps else None,
                )
            except BaseException:
                # The kernel counted the event whose callback raised;
                # the run does not.
                self.events_fresh += sim.events_processed - before - 1
                raise
            if (
                heartbeat is not None
                and self.events_fresh >= self._beat_mark
            ):
                heartbeat.beat(
                    sim,
                    events=self.events_fresh,
                    events_replayed=self.events_replayed,
                    checkpoints=self.captures,
                )
                self._beat_mark += heartbeat.every_events
            if (
                self._next_events_mark is not None
                and sim.events_processed >= self._next_events_mark
            ):
                self.checkpoint()
                self._next_events_mark += self.policy.every_events
            if (
                kill_after_events is not None
                and self.events_fresh >= kill_after_events
                and sim.next_event_time() is not None
            ):
                self.killed = True
                return

    def run(
        self,
        kill_after_events: int | None = None,
        heartbeat=None,
    ) -> RecoveryReport:
        """Run to completion (or the kill point), recovering as needed.

        An :class:`ExhaustedError` escaping the model ends the run with
        outcome ``exhausted`` (see :attr:`exhausted`).  With a
        :class:`~repro.obs.perf.RunHeartbeat`, the drive loop
        emits a progress line every ``heartbeat.every_events`` fresh
        events (replayed events are reported separately, never counted
        as progress) and a final line when the run ends.  The heartbeat
        reads the metrics of the system being driven: after a rollback,
        the rebuilt one's.
        """
        if heartbeat is not None:
            self._heartbeat = heartbeat
            self._beat_mark = self.events_fresh + heartbeat.every_events
        try:
            while True:
                if self._heartbeat is not None:
                    self._heartbeat.bind(self.context.system.metrics)
                try:
                    self._drive(kill_after_events)
                except RollbackSignal as signal:
                    if self.rollbacks >= self.max_rollbacks:
                        raise CheckpointError(
                            f"gave up after {self.rollbacks} rollbacks: "
                            f"{signal.reason}"
                        ) from signal
                    self._rollback(signal)
                    continue
                except ExhaustedError as error:
                    self.exhausted = str(error)
                if self._heartbeat is not None:
                    self._heartbeat.beat(
                        self.context.system.sim,
                        events=self.events_fresh,
                        events_replayed=self.events_replayed,
                        checkpoints=self.captures,
                        final=True,
                    )
                if self.exhausted is not None:
                    return self.report("exhausted")
                return self.report("killed" if self.killed else "completed")
        finally:
            if self._heartbeat is not None:
                self._heartbeat.close()

    # -- rollback recovery --------------------------------------------------

    def _suspect_fault(self) -> int:
        """Index of the most recent unmasked injected fault."""
        campaign = self.context.campaign
        if campaign is None:
            raise CheckpointError("rollback signalled but no fault campaign")
        for index in reversed(campaign.injected):
            if index >= 0 and index not in campaign.masked:
                return index
        raise CheckpointError(
            "rollback signalled but every injected fault is already masked"
        )

    def _rollback(self, signal: RollbackSignal) -> None:
        campaign = self.context.campaign
        suspect = self._suspect_fault()
        spec = campaign.faults[suspect]
        inject_ps = us(spec.at_us)
        old_watchdog = self.context.watchdog
        # Only checkpoints strictly preceding the masked injection are
        # valid replay targets: at or after it, the masked trajectory
        # diverges from the captured one.
        self.snapshots = [
            snap for snap in self.snapshots if snap.time_ps < inject_ps
        ]
        base = self.snapshots[-1] if self.snapshots else None
        self.rollbacks += 1
        self.attempts.append({
            "rollback": self.rollbacks,
            "task_id": signal.task_id,
            "reason": signal.reason,
            "masked_fault": {
                "index": suspect,
                "kind": spec.kind,
                "at_us": spec.at_us,
            },
            "watchdog_actions": (
                [dict(action) for action in old_watchdog.actions]
                if old_watchdog is not None else []
            ),
            "resumed_from": (
                {"events": base.events_processed, "time_ps": base.time_ps}
                if base is not None else None
            ),
        })
        masked = sorted(set(campaign.masked) | {suspect})
        self.params = dict(self.params, masked=masked)
        old_sim = self.context.system.sim
        self.context = build_workload(self.workload, self.params)
        if base is not None:
            self._replay_to(base)
        old_sim.hand_over(self.context.system.sim)
        self._reset_marks()

    def _replay_to(self, snapshot: Snapshot) -> None:
        """Deterministically replay the fresh context to ``snapshot``.

        Replayed events are counted in :attr:`events_replayed`, apart
        from :attr:`events_fresh`: they reconstruct state the run
        already paid for.
        """
        replayed = self.context.system.sim.run(
            max_events=snapshot.events_processed
        )
        self.events_replayed += replayed
        if replayed != snapshot.events_processed:
            raise CheckpointError(
                f"replay drained after {replayed} events; bundle was "
                f"captured at {snapshot.events_processed} — the rebuilt "
                f"workload does not match the one checkpointed"
            )
        self.context.verify(snapshot)

    # -- resume from a bundle ----------------------------------------------

    @classmethod
    def resume(
        cls,
        snapshot: Snapshot,
        policy: CheckpointPolicy | None = None,
        store: CheckpointStore | None = None,
        max_rollbacks: int = 3,
    ) -> "ResumableRun":
        """Rebuild, replay, and verify a run from a checkpoint bundle.

        The returned run sits exactly where the bundle was captured —
        every layer verified field-by-field — and continues
        byte-identically to a run that was never interrupted.
        """
        setup = snapshot.setup
        if not setup.get("workload"):
            raise CheckpointError(
                "bundle records no workload setup; it can verify a live "
                "system but cannot be resumed"
            )
        run = cls(
            setup["workload"],
            setup.get("params", {}),
            policy=policy,
            store=store,
            max_rollbacks=max_rollbacks,
        )
        run._replay_to(snapshot)
        run.snapshots.append(snapshot)
        run._reset_marks()
        return run

    @classmethod
    def open(
        cls,
        workload: str,
        params: dict | None = None,
        policy: CheckpointPolicy | None = None,
        store: CheckpointStore | None = None,
        max_rollbacks: int = 3,
    ) -> "ResumableRun":
        """Resume from the store's newest bundle, or start fresh.

        A store that already holds bundles is resumed (see
        :meth:`resume`); an empty store, or none, starts a fresh run.
        Raises :class:`CheckpointError` when the newest bundle records
        another workload or other params.  The comparison ignores
        ``masked``, which a rollback adds to later bundles' params.
        """
        params = dict(params or {})
        paths = store.paths() if store is not None else []
        if not paths:
            return cls(workload, params, policy=policy, store=store,
                       max_rollbacks=max_rollbacks)
        def unmasked(params: dict) -> dict:
            return {k: v for k, v in params.items() if k != "masked"}

        snapshot = store.latest()
        recorded = unmasked(snapshot.setup.get("params", {}))
        asked = unmasked(params)
        if snapshot.setup.get("workload") != workload or recorded != asked:
            raise CheckpointError(
                f"{paths[-1]} was recorded for workload "
                f"{snapshot.setup.get('workload')!r} with params "
                f"{canonical_json(recorded)}, not {workload!r} with "
                f"{canonical_json(asked)}"
            )
        run = cls.resume(snapshot, policy=policy, store=store,
                         max_rollbacks=max_rollbacks)
        run.resumed_from = str(paths[-1])
        return run

    # -- reporting ----------------------------------------------------------

    def report(self, outcome: str) -> RecoveryReport:
        """Build the deterministic recovery report."""
        context = self.context
        sim = context.system.sim
        campaign = context.campaign
        return RecoveryReport({
            "outcome": outcome,
            "rollbacks": self.rollbacks,
            "checkpoints": self.captures,
            "attempts": [dict(attempt) for attempt in self.attempts],
            "masked": sorted(campaign.masked) if campaign is not None else [],
            "final": {
                "time_ps": sim.now,
                "events_processed": sim.events_processed,
                "events_fresh": self.events_fresh,
                "events_replayed": self.events_replayed,
                "delivered": len(context.received),
                "delivered_ok": (
                    context.received == context.expected
                    if context.expected else None
                ),
                "watchdog_fired": (
                    context.watchdog.fired
                    if context.watchdog is not None else 0
                ),
            },
        })

    def final_report(self) -> dict:
        """The workload's canonical end-of-run document.

        An exhausted run's report also holds the error text under
        ``"exhausted"``; a completed run's is the workload's alone.
        """
        report = self.context.final_report()
        if self.exhausted is not None:
            report["exhausted"] = self.exhausted
        return report

    def __repr__(self) -> str:
        return (
            f"<ResumableRun {self.workload!r} "
            f"checkpoints={self.captures} rollbacks={self.rollbacks}>"
        )
