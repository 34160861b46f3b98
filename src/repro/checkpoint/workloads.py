"""Rebuildable workloads: named builders shared by CLI, tests and resume.

Restore works by re-running the workload from scratch (see
:mod:`repro.checkpoint.snapshot`), which is only possible when the
workload can be rebuilt from plain data.  This registry maps a workload
*name* plus a JSON-able *params* dict to a fully wired
:class:`RunContext`; a checkpoint bundle records ``{"workload": name,
"params": params}`` as its setup, and resume rebuilds bit-identically
from that record alone.

Builders must be deterministic: the same params always produce the
same event trajectory.  Anything random must flow through a recorded
seed.  Each builder declares the params keys it reads; every builder
also takes :data:`SHARED_PARAMS`, and :func:`build_workload` refuses
any other key, so a misspelt or ignored param cannot give a sweep
point a job digest of its own for an unchanged simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.checkpoint.snapshot import CheckpointError, Snapshot, content_digest


@dataclass
class RunContext:
    """Everything a resumable run needs to drive and snapshot a workload."""

    system: object
    campaign: object | None = None
    nos: object | None = None
    watchdog: object | None = None
    governor: object | None = None
    #: Words actually delivered to the workload's sink, in order.
    received: list = field(default_factory=list)
    #: What ``received`` must equal for a fully successful run.
    expected: list = field(default_factory=list)
    #: A span the workload opens at t=0; the final report closes it.
    root_span: object | None = None

    def capture(self, setup: dict | None = None) -> Snapshot:
        """Snapshot every layer of this context."""
        return Snapshot.capture(
            self.system,
            campaign=self.campaign,
            nos=self.nos,
            watchdog=self.watchdog,
            governor=self.governor,
            setup=setup,
        )

    def verify(self, snapshot: Snapshot) -> None:
        """Check this (replayed) context against ``snapshot``."""
        snapshot.verify(
            self.system,
            campaign=self.campaign,
            nos=self.nos,
            watchdog=self.watchdog,
            governor=self.governor,
        )

    def final_report(self) -> dict:
        """Canonical end-of-run document for byte-identity comparison.

        Fixed internal order (campaign report, then energy report, then
        metrics snapshot, then whole-state digest) because the energy
        queries close integration windows — any two runs that execute
        the same trajectory and then build this report produce the same
        bytes.
        """
        if self.root_span is not None:
            self.root_span.finish(self.system.sim.now)
        report: dict = {}
        if self.campaign is not None:
            report["campaign"] = self.campaign.report().to_dict()
        report["energy"] = self.system.energy_report().to_dict()
        report["metrics"] = self.system.metrics_snapshot().as_dict()
        scope = self.system.topology.fabric.netscope
        if scope is not None:
            report["netscope"] = scope.heatmap()
        report["received"] = list(self.received)
        report["delivered_ok"] = (
            self.received == self.expected if self.expected else None
        )
        if self.watchdog is not None:
            report["watchdog"] = self.watchdog.snapshot_state()
        if self.governor is not None:
            report["governor"] = self.governor.snapshot_state()
        report["state_digest"] = content_digest(self.system.snapshot_state())
        return report


#: Params every builder takes: the machine (:func:`_system_kwargs`) and
#: the fabric observatory (attached by :func:`build_workload`).
SHARED_PARAMS = frozenset({
    "slices_x", "slices_y", "freq_mhz", "topology", "link_aggregation",
    "netscope", "netscope_window_us",
})

#: name -> builder(params) -> RunContext
WORKLOADS: dict[str, Callable[[dict], RunContext]] = {}
#: name -> every params key its builder accepts (shared keys included)
WORKLOAD_PARAMS: dict[str, frozenset] = {}


def register_workload(name: str, params: Iterable[str] = ()):
    """Decorator: register a workload builder under ``name``.

    ``params`` names the keys the builder reads beyond
    :data:`SHARED_PARAMS`.
    """

    def register(builder: Callable[[dict], RunContext]):
        if name in WORKLOADS:
            raise ValueError(f"workload {name!r} already registered")
        WORKLOADS[name] = builder
        WORKLOAD_PARAMS[name] = SHARED_PARAMS | frozenset(params)
        return builder

    return register


def build_workload(name: str, params: dict | None = None) -> RunContext:
    """Build a registered workload from plain data.

    With ``params["netscope"]`` set, the fabric observatory is attached
    to the built system, sampling windows of ``netscope_window_us``
    (default 1 µs).  Both are params, so a resumed or rolled-back run
    rebuilds the same probes (and the same heat-map bytes) from the
    checkpoint's setup record.

    Raises :class:`CheckpointError` for an unknown workload or for any
    params key the workload does not declare.
    """
    builder = WORKLOADS.get(name)
    if builder is None:
        known = ", ".join(sorted(WORKLOADS)) or "(none)"
        raise CheckpointError(f"unknown workload {name!r}; known: {known}")
    params = dict(params or {})
    unknown = sorted(set(params) - WORKLOAD_PARAMS[name])
    if unknown:
        raise CheckpointError(
            f"workload {name!r} takes no param(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(WORKLOAD_PARAMS[name]))}"
        )
    context = builder(params)
    if params.get("netscope"):
        window_us = float(params.get("netscope_window_us", 1.0))
        context.system.netscope(window_ps=int(window_us * 1e6))
    return context


# ---------------------------------------------------------------------------
# Built-in workloads
# ---------------------------------------------------------------------------


def _system_kwargs(params: dict) -> dict:
    """`SwallowSystem` construction kwargs shared by every builder.

    ``freq_mhz``, ``topology`` and ``link_aggregation`` make the DSE
    axes first-class sweepable parameters (the farm's matrices sweep
    topology x frequency x seeds); all are part of the params dict,
    hence of the job's content digest.  ``topology`` names a variant
    from :data:`repro.network.topology.TOPOLOGIES` and
    ``link_aggregation`` widens every inter-package connection to that
    many parallel links.
    """
    kwargs = {
        "slices_x": int(params.get("slices_x", 1)),
        "slices_y": int(params.get("slices_y", 1)),
    }
    if params.get("freq_mhz") is not None:
        from repro.sim import Frequency

        kwargs["frequency"] = Frequency.mhz(float(params["freq_mhz"]))
    if params.get("topology") is not None:
        kwargs["topology"] = str(params["topology"])
    if params.get("link_aggregation") is not None:
        kwargs["link_aggregation"] = int(params["link_aggregation"])
    return kwargs


def _stream_route(system):
    """The canonical one-hop stream route used by the fault workloads."""
    from repro.network.routing import Layer

    topology = system.topology
    node_a = topology.node_at(0, 0, Layer.VERTICAL)
    node_b = topology.node_at(0, 1, Layer.VERTICAL)
    cores = {core.node_id: core for core in system.cores}
    return node_a, node_b, cores


@register_workload("demo", params=("seed",))
def _demo(params: dict) -> RunContext:
    """The quickstart workload (producer/consumer + a spin loop).

    ``seed`` deterministically varies the loop count, the number of
    streamed words and their payloads; without it the historical fixed
    demo runs.
    """
    import random

    from repro.core.platform import SwallowSystem
    from repro.xs1 import Compute, RecvWord, SendWord, assemble

    system = SwallowSystem(**_system_kwargs(params))
    seed = params.get("seed")
    if seed is None:
        loop_count, words, payload = 1000, 4, lambda i: i * i
    else:
        rng = random.Random(seed)
        loop_count = rng.randrange(200, 2000)
        words = rng.randrange(2, 9)
        values = [rng.randrange(0, 1 << 16) for _ in range(words)]
        payload = lambda i: values[i]
    system.spawn(system.core(0), assemble(f"""
        ldc r0, {loop_count}
    loop:
        subi r0, r0, 1
        bt r0, loop
        freet
    """))
    channel = system.channel(system.core(1), system.core(10))
    received: list[int] = []

    def producer():
        for i in range(words):
            yield Compute(100)
            yield SendWord(channel.a, payload(i))

    def consumer():
        for _ in range(words):
            received.append((yield RecvWord(channel.b)))

    system.spawn_task(system.core(1), producer())
    system.spawn_task(system.core(10), consumer())
    return RunContext(system=system, received=received)


@register_workload("pipeline", params=("seed",))
def _pipeline(params: dict) -> RunContext:
    """A span-instrumented three-stage pipeline.

    Producer → relay → consumer across three cores, every stage under
    its own child span of one ``pipeline`` root, which the final report
    closes.  ``seed`` varies the word count and compute cost.
    """
    import random

    from repro.core.platform import SwallowSystem
    from repro.xs1 import Compute, RecvWord, SendWord

    system = SwallowSystem(**_system_kwargs(params))
    recorder = system.spans()
    root = recorder.span("pipeline")
    root.begin(system.sim.now)
    seed = params.get("seed")
    if seed is None:
        words, cost = 6, 120
    else:
        rng = random.Random(seed)
        words = rng.randrange(3, 10)
        cost = rng.randrange(60, 260)
    first = system.channel(system.core(0), system.core(1))
    second = system.channel(system.core(1), system.core(10))
    received: list[int] = []

    def producer():
        for i in range(words):
            yield Compute(cost)
            yield SendWord(first.a, i * 3 + 1)

    def relay():
        for _ in range(words):
            value = yield RecvWord(first.b)
            yield Compute(cost // 2)
            yield SendWord(second.a, value * 2)

    def consumer():
        for _ in range(words):
            received.append((yield RecvWord(second.b)))

    system.spawn_task(system.core(0), producer(), name="produce",
                      span=root.child("produce"))
    system.spawn_task(system.core(1), relay(), name="relay",
                      span=root.child("relay"))
    system.spawn_task(system.core(10), consumer(), name="consume",
                      span=root.child("consume"))
    return RunContext(
        system=system,
        received=received,
        expected=[(i * 3 + 1) * 2 for i in range(words)],
        root_span=root,
    )


@register_workload(
    "faults_stream",
    params=("seed", "words", "drop_rate", "faults", "heal", "masked"),
)
def _faults_stream(params: dict) -> RunContext:
    """A reliable word stream under a seeded fault campaign.

    A producer streams ``words`` values over a :class:`ReliableChannel`
    crossing one vertical link, while the campaign injects the given
    ``faults`` (default: one flaky link on the stream's route from
    t=0).
    """
    from repro.apps.reliable import ReliableChannel
    from repro.core.platform import SwallowSystem
    from repro.faults.campaign import FaultCampaign

    words = int(params.get("words", 16))
    system = SwallowSystem(**_system_kwargs(params))
    node_a, node_b, cores = _stream_route(system)
    channel = ReliableChannel.between(cores[node_a], cores[node_b])
    received: list[int] = []

    def producer():
        for i in range(words):
            yield from channel.send(i * 7 + 1)

    def consumer():
        for _ in range(words):
            received.append((yield from channel.recv()))
        yield from channel.drain()

    system.spawn_task(cores[node_a], producer(), name="faults.tx")
    system.spawn_task(cores[node_b], consumer(), name="faults.rx")

    faults = params.get("faults")
    if faults is None:
        faults = [{
            "kind": "flaky_link",
            "at_us": 0.0,
            "node_a": node_a,
            "node_b": node_b,
            "drop_rate": float(params.get("drop_rate", 0.05)),
        }]
    campaign = FaultCampaign.from_spec(system, {
        "seed": int(params.get("seed", 0)),
        "faults": faults,
        "heal": bool(params.get("heal", True)),
    })
    campaign.masked.update(int(i) for i in params.get("masked", ()))
    campaign.register_channel("stream", channel)
    campaign.register_metrics(system.metrics)
    campaign.arm()
    return RunContext(
        system=system,
        campaign=campaign,
        received=received,
        expected=[i * 7 + 1 for i in range(words)],
    )


@register_workload(
    "watchdog_stream",
    params=("seed", "words", "max_retries", "faults", "fault_at_us", "heal",
            "masked", "check_every_us", "stall_checks", "deadline_us"),
)
def _watchdog_stream(params: dict) -> RunContext:
    """The fault stream under NanoOS placement and watchdog supervision.

    Producer and consumer are NanoOS tasks pinned to the stream's
    endpoint cores; the watchdog supervises end-to-end delivery
    (``channel.stats.delivered`` as the progress probe).  With a
    permanent 100 %-drop flaky link injected mid-run, delivery
    livelocks: the sender retries forever, the watchdog fires, the
    replace rung cannot help (the fault is on the wire, not the core),
    and the rollback rung recovers the run — the recovery-ladder
    demonstration workload.
    """
    from repro.apps.reliable import ReliableChannel
    from repro.core.nos import NanoOS
    from repro.core.platform import SwallowSystem
    from repro.core.watchdog import Watchdog
    from repro.faults.campaign import FaultCampaign

    words = int(params.get("words", 24))
    system = SwallowSystem(**_system_kwargs(params))
    node_a, node_b, cores = _stream_route(system)
    channel = ReliableChannel.between(
        cores[node_a], cores[node_b],
        max_retries=int(params.get("max_retries", 1_000_000)),
    )
    received: list[int] = []

    def producer_factory(core):
        def body():
            for i in range(words):
                yield from channel.send(i * 7 + 1)
        return body()

    def consumer_factory(core):
        def body():
            for _ in range(words):
                received.append((yield from channel.recv()))
            yield from channel.drain()
        return body()

    nos = NanoOS(system)
    nos.submit(producer_factory, pin=cores[node_a], name="wd.tx")
    consumer = nos.submit(consumer_factory, pin=cores[node_b], name="wd.rx")

    faults = params.get("faults")
    if faults is None:
        faults = [{
            "kind": "flaky_link",
            "at_us": float(params.get("fault_at_us", 20.0)),
            "node_a": node_a,
            "node_b": node_b,
            "drop_rate": 1.0,
        }]
    campaign = FaultCampaign.from_spec(system, {
        "seed": int(params.get("seed", 0)),
        "faults": faults,
        "heal": bool(params.get("heal", True)),
    }, nos=nos)
    campaign.masked.update(int(i) for i in params.get("masked", ()))
    campaign.register_channel("stream", channel)
    campaign.register_metrics(system.metrics)
    campaign.arm()

    watchdog = Watchdog(
        system, nos=nos,
        check_every_us=float(params.get("check_every_us", 15.0)),
    )
    watchdog.watch(
        consumer,
        progress=lambda: channel.stats.delivered,
        stall_checks=int(params.get("stall_checks", 2)),
        deadline_us=params.get("deadline_us"),
        # Full delivery ends supervision: the consumer then sits in
        # drain(), which is quiescence, not a stall.
        until=lambda: channel.stats.delivered >= words,
    )
    watchdog.register_metrics(system.metrics)
    watchdog.arm()
    return RunContext(
        system=system,
        campaign=campaign,
        nos=nos,
        watchdog=watchdog,
        received=received,
        expected=[i * 7 + 1 for i in range(words)],
    )


@register_workload(
    "policy_rt",
    params=("policy", "k", "fault_budget", "spans", "tasks", "taskset_seed",
            "kills", "seed", "kill_from_us", "kill_every_us", "heal", "masked",
            "governor_budget_mw", "governor_channel", "governor_samples"),
)
def _policy_rt(params: dict) -> RunContext:
    """A seeded real-time task set under a policy-zoo bundle and core kills.

    The ablation harness's cell: ``tasks`` compute-bound tasks with
    seeded WCETs, deadlines and criticalities are placed by the zoo
    bundle named by ``policy`` (``k`` parameterises the ``kfault``
    bundle; every other bundle gets ``fault_budget = k``), while a
    campaign seeded by ``seed`` kills ``kills`` cores at staggered
    times.  Everything random flows through the two recorded seeds, so
    the run — placements, restarts, sheds, deadline verdicts, energy —
    is a pure function of its params.

    ``governor_budget_mw`` additionally installs a checkpoint-aware
    :class:`~repro.core.governor.PowerGovernor` on core 0's rail.
    """
    import random

    from repro.core.governor import PowerGovernor
    from repro.core.nos import NanoOS
    from repro.core.platform import SwallowSystem
    from repro.faults.campaign import FaultCampaign
    from repro.nos.policies import build_policy
    from repro.xs1.behavioral import Compute

    system = SwallowSystem(**_system_kwargs(params))

    policy_name = str(params.get("policy", "least_loaded"))
    k = int(params.get("k", 1))
    scheduler, dvfs = build_policy(policy_name, k=k)
    if policy_name == "kfault":
        # The k-fault policy owns its tolerance: ≤ k deaths heal via
        # reserved backups, beyond that it sheds instead of raising.
        fault_budget = None
    else:
        budget = params.get("fault_budget", k)
        fault_budget = None if budget is None else int(budget)
    nos = NanoOS(
        system,
        fault_budget=fault_budget,
        spans=bool(params.get("spans", False)),
        policy=scheduler,
        dvfs=dvfs,
    )

    count = int(params.get("tasks", 24))
    taskset = random.Random(int(params.get("taskset_seed", 1234)))
    for index in range(count):
        wcet_instr = taskset.randrange(2_000, 6_001)
        # Tight enough that a frequency-scaled run can miss, loose
        # enough that a full-speed restart after a ≤ k kill cannot
        # (worst case: restart at 34 us + 48 us WCET < 90 us floor).
        deadline_us = round(taskset.uniform(90.0, 220.0), 1)
        criticality = taskset.randrange(0, 3)

        def factory(core, instructions=wcet_instr):
            def body():
                yield Compute(instructions)
            return body()

        nos.submit(
            factory,
            name=f"rt.{index}",
            deadline_us=deadline_us,
            # One issue slot per 4 clock cycles at ≤ 4 threads/core.
            wcet_cycles=4 * wcet_instr,
            criticality=criticality,
        )

    kills = int(params.get("kills", 0))
    seed = int(params.get("seed", 0))
    rng = random.Random(seed)
    kill_from_us = float(params.get("kill_from_us", 10.0))
    kill_every_us = float(params.get("kill_every_us", 12.0))
    victims = rng.sample(
        [core.node_id for core in system.cores], kills
    ) if kills else []
    faults = [
        {
            "kind": "core_kill",
            "at_us": kill_from_us + index * kill_every_us,
            "node_id": node_id,
        }
        for index, node_id in enumerate(victims)
    ]
    campaign = FaultCampaign.from_spec(system, {
        "seed": seed,
        "faults": faults,
        "heal": bool(params.get("heal", True)),
    }, nos=nos)
    campaign.masked.update(int(i) for i in params.get("masked", ()))
    campaign.register_metrics(system.metrics)
    nos.register_metrics(system.metrics)
    campaign.arm()

    governor = None
    if params.get("governor_budget_mw") is not None:
        governor = PowerGovernor(
            system.measurement_board(0, 0),
            channel=int(params.get("governor_channel", 0)),
            budget_mw=float(params["governor_budget_mw"]),
        )
        governor.install(
            system.cores[0],
            iterations=int(params.get("governor_samples", 8)),
        )
    return RunContext(
        system=system,
        campaign=campaign,
        nos=nos,
        governor=governor,
    )
