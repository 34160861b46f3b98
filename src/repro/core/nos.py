"""nOS-lite: a nano-sized distributed task runtime (paper ref. [3]).

The Swallow project built "nOS: a nano-sized distributed operating
system for resource optimisation on many-core systems".  This module is
a lightweight reproduction of its placement/boot role: tasks are
submitted centrally, placed by the active :class:`SchedulerPolicy`
(least-loaded by default, optionally pinned), and — when the machine
has an Ethernet bridge — charged the realistic program-upload time
before they start.

Placement, orphan re-placement after a core death, and graceful
degradation all route through the pluggable policy layer of
:mod:`repro.nos.policies`; tasks may carry real-time metadata
(``period_us``, ``deadline_us``, ``wcet_cycles``, ``criticality``)
which feeds deadline accounting (``nos.deadline_*`` metrics, span
annotations) and the DVFS policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.core.platform import SwallowSystem
from repro.network.ethernet import EthernetBridge
from repro.nos.policies import DVFSPolicy, LeastLoadedPolicy, SchedulerPolicy
from repro.sim import us
from repro.xs1.assembler import Program
from repro.xs1.behavioral import BehavioralThread
from repro.xs1.core import XCore
from repro.xs1.errors import ExhaustedError
from repro.xs1.thread import HardwareThread, IsaThread


@dataclass
class MapJob:
    """A parallel-map collective in flight."""

    expected: int
    completed: int = 0
    handles: list["TaskHandle"] = field(default_factory=list)
    results: dict = field(default_factory=dict)

    @property
    def done(self) -> bool:
        """All items evaluated."""
        return self.completed == self.expected

    def ordered_results(self) -> list:
        """Results in submission order (job must be done)."""
        if not self.done:
            raise RuntimeError(
                f"map job incomplete: {self.completed}/{self.expected}"
            )
        return [self.results[i] for i in range(self.expected)]


@dataclass
class TaskHandle:
    """A submitted task."""

    task_id: int
    core: XCore
    thread: HardwareThread | None = None
    start_time_ps: int | None = None
    #: How often the task has been restarted on a new core after its
    #: previous core died mid-run (see :meth:`NanoOS.handle_core_failure`).
    restarts: int = 0
    #: Rebuilds the task's thread on a given core — kept so the runtime
    #: can restart the task from scratch after a core failure.
    spawn_fn: Callable[[XCore], HardwareThread] | None = None
    #: Code size charged per (re-)upload over the Ethernet bridge.
    code_bits: int = 0
    #: Causal span charged for this task's work (when the runtime was
    #: built with a span recorder).  Restarts keep the same span, so a
    #: healed task's energy stays attributed across cores.
    span: object | None = None
    #: Real-time metadata (all optional): activation period, relative
    #: deadline and worst-case execution budget in core clock cycles.
    period_us: float | None = None
    deadline_us: float | None = None
    wcet_cycles: int | None = None
    #: Shedding priority under graceful degradation: lower criticality
    #: is shed first (ties broken on task id).
    criticality: int = 0
    #: Absolute deadline (ps), fixed at submission time.
    deadline_ps: int | None = None
    #: When the task's body ran to completion (ps).
    finish_time_ps: int | None = None
    #: True once graceful degradation dropped this task.
    shed: bool = False

    @property
    def started(self) -> bool:
        """True once the task occupies a hardware thread."""
        return self.thread is not None

    @property
    def done(self) -> bool:
        """True when the task has run to completion."""
        return self.thread is not None and self.thread.halted


class NanoOS:
    """Central task placement over a Swallow machine."""

    def __init__(
        self,
        system: SwallowSystem,
        bridge: EthernetBridge | None = None,
        fault_budget: int | None = None,
        spans: bool = False,
        policy: SchedulerPolicy | None = None,
        dvfs: DVFSPolicy | None = None,
    ):
        self.system = system
        self.bridge = bridge
        #: With ``spans=True`` every submitted behavioural task gets a
        #: causal span (child of one ``nos`` root span) on the system's
        #: span recorder, feeding per-task energy attribution.
        self.span_root = None
        if spans:
            recorder = system.spans()
            self.span_root = recorder.span("nos")
        self._next_task_id = 0
        self.tasks: list[TaskHandle] = []
        self._upload_busy_until_ps = 0
        #: Maximum number of core deaths the runtime agrees to heal
        #: (FEST-style k-fault budget); ``None`` means unbounded.
        self.fault_budget = fault_budget
        self.failed_cores: list[XCore] = []
        #: Tasks restarted on a survivor core after their core died.
        self.replacements = 0
        #: Placement/degradation strategy (least-loaded by default —
        #: the pre-policy behaviour, bit for bit).
        self.policy = policy if policy is not None else LeastLoadedPolicy()
        #: Optional frequency-scaling policy driven by the task lifecycle.
        self.dvfs = dvfs
        #: Tasks dropped by graceful degradation, in shed order.
        self.shed_tasks: list[TaskHandle] = []
        if dvfs is not None:
            dvfs.attach(self)

    # -- placement ---------------------------------------------------------------

    def _load(self, core: XCore) -> int:
        return core.live_threads + sum(
            1 for t in self.tasks if t.core is core and not t.started
        )

    def _candidates(self) -> list[XCore]:
        """Healthy cores with a spare hardware thread, in node order."""
        healthy = [c for c in self.system.cores if not c.failed]
        if not healthy:
            raise ExhaustedError("every core in the machine has failed")
        candidates = [
            c for c in healthy if self._load(c) < c.config.max_threads
        ]
        if not candidates:
            raise ExhaustedError("no free hardware thread anywhere in the machine")
        return candidates

    def pick_core(
        self,
        pin: XCore | None = None,
        handle: TaskHandle | None = None,
    ) -> XCore:
        """Policy placement (least-loaded, node-id tie-break, by default)."""
        if pin is not None:
            if pin.failed:
                raise ExhaustedError(f"{pin.name}: core has failed")
            if self._load(pin) >= pin.config.max_threads:
                raise ExhaustedError(f"{pin.name}: no free hardware thread")
            return pin
        return self.policy.choose(self, self._candidates(), handle)

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        task_factory: Callable[[XCore], Generator],
        pin: XCore | None = None,
        name: str | None = None,
        period_us: float | None = None,
        deadline_us: float | None = None,
        wcet_cycles: int | None = None,
        criticality: int = 0,
    ) -> TaskHandle:
        """Submit a behavioural task; ``task_factory(core)`` builds its body.

        With a bridge attached, the task starts only after its (nominal
        1 KiB) code upload crosses the Ethernet at 80 Mbit/s.  The
        real-time metadata is optional: a relative ``deadline_us``
        (defaulting to ``period_us`` when only a period is given) fixes
        the task's absolute deadline at submission time, and
        ``wcet_cycles`` budgets it for the DVFS policies.
        """
        handle = TaskHandle(
            task_id=self._next_task_id,
            core=self.system.cores[0],  # placeholder until placed below
            period_us=period_us,
            deadline_us=deadline_us,
            wcet_cycles=wcet_cycles,
            criticality=criticality,
        )
        relative_us = deadline_us if deadline_us is not None else period_us
        if relative_us is not None:
            handle.deadline_ps = self.system.sim.now + us(relative_us)
        handle.core = self.pick_core(pin, handle)
        self._next_task_id += 1
        self.tasks.append(handle)
        self.policy.on_submit(self, handle)
        task_name = name or f"nos.t{handle.task_id}"
        if self.span_root is not None:
            handle.span = self.span_root.child(task_name)
            handle.span.annotate("policy", self.policy.name)

        def spawn(on_core: XCore) -> HardwareThread:
            thread = BehavioralThread(
                on_core,
                self._instrument(handle, task_factory(on_core)),
                name=task_name,
            )
            if handle.span is not None:
                if handle.span.node_id is None:
                    handle.span.node_id = on_core.node_id
                handle.span.begin(self.system.sim.now)
                # A restart after a core death re-opens the span the
                # dying thread closed; it finally closes at real
                # completion.
                handle.span.end_ps = None
                thread.span = handle.span
            return thread

        handle.spawn_fn = spawn
        handle.code_bits = 8 * 1024
        self._schedule_start(handle)
        if self.dvfs is not None:
            self.dvfs.on_task_submitted(self, handle)
        return handle

    def _instrument(self, handle: TaskHandle, body: Generator) -> Generator:
        """Wrap a task body to observe normal completion.

        Adds zero simulated operations: the bookkeeping runs when the
        body's final ``StopIteration`` propagates.  A body killed by a
        core death never reaches it — only real completion counts.
        """
        yield from body
        self._task_finished(handle)

    def _task_finished(self, handle: TaskHandle) -> None:
        handle.finish_time_ps = self.system.sim.now
        if handle.span is not None and handle.deadline_ps is not None:
            hit = handle.finish_time_ps <= handle.deadline_ps
            handle.span.annotate("deadline", "hit" if hit else "miss")
        if self.dvfs is not None:
            self.dvfs.on_task_finished(self, handle)

    def submit_program(
        self,
        program: Program,
        entry: str | int = "start",
        pin: XCore | None = None,
        regs: dict[str, int] | None = None,
    ) -> TaskHandle:
        """Submit an assembled program; upload time scales with its size."""
        core = self.pick_core(pin)
        handle = TaskHandle(task_id=self._next_task_id, core=core)
        self._next_task_id += 1
        self.tasks.append(handle)

        def spawn(on_core: XCore) -> HardwareThread:
            return on_core.spawn(program, entry=entry, regs=regs)

        handle.spawn_fn = spawn
        handle.code_bits = 32 * len(program.instructions) + 8 * sum(
            len(block) for _, block in program.data_blocks
        )
        self._schedule_start(handle)
        return handle

    def _schedule_start(self, handle: TaskHandle) -> None:
        """Queue the task's (re-)upload and start it when the upload lands.

        The start event is tied to the task's restart generation: if the
        placed core dies before the upload completes, the task is re-placed
        with a fresh generation and the stale event becomes a no-op.
        """
        generation = handle.restarts

        def start() -> None:
            if handle.restarts != generation or handle.core.failed or handle.shed:
                return
            handle.thread = handle.spawn_fn(handle.core)
            handle.start_time_ps = self.system.sim.now

        self.system.sim.schedule_at(self._upload_slot(handle.code_bits), start)

    def _upload_slot(self, code_bits: int) -> int:
        """Reserve the bridge for one upload; uploads serialise at 80 Mbit/s."""
        now = self.system.sim.now
        if self.bridge is None:
            return now
        duration_ps = round(self.bridge.transfer_time_s(code_bits) * 1e12)
        start = max(now, self._upload_busy_until_ps)
        self._upload_busy_until_ps = start + duration_ps
        return self._upload_busy_until_ps

    # -- healing ---------------------------------------------------------------

    def handle_core_failure(self, core: XCore) -> list[TaskHandle]:
        """Kill ``core`` and restart its unfinished tasks on survivors.

        Orphans are collected *before* the core halts its threads —
        afterwards they would be indistinguishable from tasks that
        finished normally.  Each orphan restarts from scratch (its
        factory is re-run) on a policy-chosen surviving core, paying
        the upload time again.  Honours the :attr:`fault_budget`: past
        it (or when the policy itself calls the guarantee broken) the
        policy may *degrade gracefully* — shed chosen tasks and keep
        running; a policy that declines leaves the original behaviour,
        an :class:`~repro.xs1.errors.ExhaustedError`, with no partial
        re-placement.
        Returns the re-placed handles.
        """
        if core in self.failed_cores:
            return []
        orphans = [
            t for t in self.tasks
            if t.core is core and not t.done and not t.shed
        ]
        budget_exhausted = (
            self.fault_budget is not None
            and len(self.failed_cores) >= self.fault_budget
        )
        if budget_exhausted or self.policy.wants_degrade(self):
            shed = self.policy.degrade(self, core, orphans)
            if shed is None:
                raise ExhaustedError(
                    f"fault budget exhausted: {len(self.failed_cores)} core"
                    f" failure(s) already healed, budget is {self.fault_budget}"
                )
            core.fail()
            self.failed_cores.append(core)
            for handle in shed:
                self._shed(handle)
            survivors = [t for t in orphans if not t.shed]
            for handle in survivors:
                self._replace(handle)
            return survivors
        core.fail()
        self.failed_cores.append(core)
        for handle in orphans:
            self._replace(handle)
        return orphans

    def _replace(self, handle: TaskHandle) -> None:
        """Restart one orphan on a policy-chosen surviving core."""
        handle.core = self.policy.replacement(self, self._candidates(), handle)
        handle.thread = None
        handle.start_time_ps = None
        handle.restarts += 1
        self.replacements += 1
        self._schedule_start(handle)

    def _shed(self, handle: TaskHandle) -> None:
        """Drop one task under graceful degradation (deterministic ledger)."""
        handle.thread = None
        handle.start_time_ps = None
        handle.shed = True
        self.shed_tasks.append(handle)
        if handle.span is not None:
            handle.span.annotate("deadline", "shed")
            handle.span.finish(self.system.sim.now)

    # -- collectives -----------------------------------------------------------------

    def map(
        self,
        function: Callable,
        items: list,
        cost_per_item: int = 100,
    ) -> "MapJob":
        """Parallel map: one task per item, least-loaded placement.

        ``function`` is evaluated on the simulated core after
        ``cost_per_item`` instructions of modelled work, so the job has
        realistic timing and energy.  Results land in submission order in
        :attr:`MapJob.results` once the simulation has run.
        """
        job = MapJob(expected=len(items))

        def make_task(index, item):
            def factory(core):
                def body():
                    from repro.xs1.behavioral import Compute

                    yield Compute(cost_per_item)
                    job.results[index] = function(item)
                    job.completed += 1
                return body()
            return factory

        for index, item in enumerate(items):
            handle = self.submit(make_task(index, item), name=f"map.{index}")
            job.handles.append(handle)
        return job

    # -- deadline accounting -----------------------------------------------------

    def deadline_status(self, handle: TaskHandle) -> str | None:
        """``hit`` / ``miss`` / ``shed`` / ``pending`` (None: no deadline).

        A still-running task past its deadline already counts as a miss
        — finishing later cannot un-miss it.
        """
        if handle.deadline_ps is None:
            return None
        if handle.shed:
            return "shed"
        if handle.finish_time_ps is not None:
            if handle.finish_time_ps <= handle.deadline_ps:
                return "hit"
            return "miss"
        if self.system.sim.now > handle.deadline_ps:
            return "miss"
        return "pending"

    def deadline_counts(self) -> dict[str, int]:
        """Deadline verdicts over the task table (fixed key order)."""
        counts = {"hit": 0, "miss": 0, "shed": 0, "pending": 0}
        for task in self.tasks:
            status = self.deadline_status(task)
            if status is not None:
                counts[status] += 1
        return counts

    def register_metrics(self, registry) -> None:
        """Publish runtime counters as lazily-read metric series."""
        policy = self.policy.name
        registry.counter_fn(
            "nos.deadline_hit", lambda: self.deadline_counts()["hit"],
            help="tasks that finished on or before their deadline",
            policy=policy,
        )
        registry.counter_fn(
            "nos.deadline_miss", lambda: self.deadline_counts()["miss"],
            help="tasks that finished late or are already past due",
            policy=policy,
        )
        registry.counter_fn(
            "nos.deadline_shed", lambda: self.deadline_counts()["shed"],
            help="tasks dropped by graceful degradation",
            policy=policy,
        )
        registry.counter_fn(
            "nos.replacements", lambda: self.replacements,
            help="orphans restarted on a survivor core",
            policy=policy,
        )
        registry.counter_fn(
            "nos.core_failures", lambda: len(self.failed_cores),
            help="core deaths the runtime has absorbed",
            policy=policy,
        )
        if self.dvfs is not None:
            registry.counter_fn(
                "nos.dvfs_steps", lambda: self.dvfs.steps,
                help="operating-point changes applied by the DVFS policy",
                policy=self.dvfs.name,
            )

    # -- checkpointing (see repro.checkpoint) ------------------------------------

    def snapshot_state(self) -> dict:
        """Canonical runtime state: the task table and healing ledger.

        Task bodies are generators and cannot be serialized; the table
        captures each task's placement, restart generation and progress,
        which a restore replay must reproduce exactly.
        """
        return {
            "next_task_id": self._next_task_id,
            "upload_busy_until_ps": self._upload_busy_until_ps,
            "fault_budget": self.fault_budget,
            "replacements": self.replacements,
            "failed_cores": [core.node_id for core in self.failed_cores],
            "policy": self.policy.snapshot_state(),
            "dvfs": (
                self.dvfs.snapshot_state() if self.dvfs is not None else None
            ),
            "shed": [task.task_id for task in self.shed_tasks],
            "tasks": [
                {
                    "task_id": task.task_id,
                    "node": task.core.node_id,
                    "started": task.started,
                    "done": task.done,
                    "restarts": task.restarts,
                    "start_time_ps": task.start_time_ps,
                    "deadline_ps": task.deadline_ps,
                    "finish_time_ps": task.finish_time_ps,
                    "criticality": task.criticality,
                    "shed": task.shed,
                    "instructions": (
                        task.thread.instructions_executed
                        if task.thread is not None else None
                    ),
                }
                for task in self.tasks
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Verify the replayed runtime against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, "nos")

    # -- introspection ---------------------------------------------------------------

    @property
    def all_done(self) -> bool:
        """True when every submitted task is terminal (completed or shed)."""
        return all(task.done or task.shed for task in self.tasks)

    def placement_histogram(self) -> dict[int, int]:
        """node id -> number of tasks placed there."""
        histogram: dict[int, int] = {}
        for task in self.tasks:
            histogram[task.core.node_id] = histogram.get(task.core.node_id, 0) + 1
        return histogram
