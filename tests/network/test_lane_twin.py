"""Differential test: switch ports on the kernel's ``call_soon`` runs.

``InputPort.pump`` queues its port's forwarding run with
:meth:`~repro.sim.engine.Simulator.call_soon`, which promises to run it
exactly where ``schedule(0, ...)`` would: a bare callback at the back
of the bucket at ``now``.  Here seeded network workloads run twice:
once as shipped, and once with ``call_soon`` monkeypatched to
``schedule(0, callback)``, the event handle the bare callback replaces.
Both runs must leave the same ``snapshot_state()``, the same trace
records (every ``issue`` record pins the cycle a woken thread issued
on, so a port run moved within its picosecond shows up as a changed
wake-up), the same kernel counters, and byte-identical checkpoint
bundles captured every :data:`EVERY` events — many of them while port
runs are still waiting in the bucket at ``now``.

The workloads: a shift (every core streams packets to its twin on the
next slice) on 2x1 slices, built here; ``faults_stream`` with a lossy
link, with and without a forced kill of that link mid-run (the kill
severs open routes, so the flush and discard paths pump too); and a
``watchdog_stream`` run that rolls back once.
"""

from __future__ import annotations

import random

import pytest

import repro.checkpoint.resume as resume
from repro import SwallowSystem
from repro.checkpoint import CheckpointPolicy, ResumableRun, Snapshot, build_workload
from repro.checkpoint.workloads import _stream_route
from repro.network.token import CT_END
from repro.sim import EventHandle, Simulator
from repro.sim.tracing import TraceRecorder
from repro.xs1 import BehavioralThread, CheckCt, Compute, RecvWord, SendCt, SendWord

#: Capture a checkpoint bundle every this many events.
EVERY = 137


def _handle_call_soon(sim: Simulator, callback) -> None:
    sim.schedule(0, callback)


def soon_waiting(sim: Simulator) -> int:
    """The ``call_soon`` runs (bare callbacks, not handles) waiting in
    the bucket at ``now``."""
    return sum(type(entry) is not EventHandle
               for entry in sim._buckets.get(sim.now, ()))


def twin(monkeypatch, scenario) -> None:
    """Run ``scenario()`` with the shipped ``call_soon``, then with it
    played as ``schedule(0, ...)``; both must observe the same.  The
    shipped run must have captured bundles with port runs waiting in
    the bucket at ``now``."""
    shipped = scenario()
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "call_soon", _handle_call_soon)
        handles = scenario()
    assert shipped.pop("soon_waiting_total") > 0
    assert handles.pop("soon_waiting_total") == 0
    assert handles.keys() == shipped.keys()
    for key in shipped:
        assert handles[key] == shipped[key], key


def shift_system(seed: int, packets: int = 2, words: int = 2) -> SwallowSystem:
    """Every core sends ``packets`` packets of seeded words to the core
    at its position on the next slice, after a seeded compute gap."""
    rng = random.Random(seed)
    system = SwallowSystem(slices_x=2, slices_y=1)
    cores = system.cores
    count = len(cores)
    rx = [core.allocate_chanend() for core in cores]

    def sender(tx, payload):
        for packet in payload:
            yield Compute(rng.randrange(10, 74))
            for word in packet:
                yield SendWord(tx, word)
            yield SendCt(tx, CT_END)

    def receiver(chanend):
        for _ in range(packets):
            for _ in range(words):
                yield RecvWord(chanend)
            yield CheckCt(chanend, CT_END)

    for i, core in enumerate(cores):
        tx = core.allocate_chanend()
        tx.set_dest(rx[(i + count // 2) % count].address)
        payload = [[rng.getrandbits(32) for _ in range(words)]
                   for _ in range(packets)]
        BehavioralThread(core, sender(tx, payload), name=f"tx{i}")
        BehavioralThread(core, receiver(rx[i]), name=f"rx{i}")
    return system


def drive(system: SwallowSystem, capture) -> dict:
    """Run ``system`` dry under a tracer, capturing every EVERY events."""
    tracer = system.trace()
    sim = system.sim
    bundles = []
    soon_waiting_total = 0
    while sim.run(max_events=EVERY) == EVERY:
        bundles.append(capture().to_json())
        soon_waiting_total += soon_waiting(sim)
    return {
        "state": system.snapshot_state(),
        "trace": tracer.to_jsonl(),
        "counters": (sim.events_processed, sim.snapshot_state()["seq"],
                     sim.queue_depth_high_water),
        "bundles": bundles,
        "soon_waiting_total": soon_waiting_total,
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shift_on_two_slices(monkeypatch, seed):
    def scenario():
        system = shift_system(seed)
        observed = drive(system, lambda: Snapshot.capture(system))
        assert all(core.all_halted for core in system.cores)
        return observed

    twin(monkeypatch, scenario)


def _stream_faults(kill_at_us: float | None) -> list[dict]:
    node_a, node_b, _ = _stream_route(SwallowSystem())
    faults = [{"kind": "flaky_link", "at_us": 0.0, "node_a": node_a,
               "node_b": node_b, "drop_rate": 0.05}]
    if kill_at_us is not None:
        faults.append({"kind": "link_kill", "at_us": kill_at_us,
                       "node_a": node_a, "node_b": node_b})
    return faults


@pytest.mark.parametrize("kill_at_us", [None, 80.75])
def test_faults_stream(monkeypatch, kill_at_us):
    params = {"words": 32, "seed": 7, "faults": _stream_faults(kill_at_us)}
    setup = {"workload": "faults_stream", "params": params}

    def scenario():
        context = build_workload("faults_stream", params)
        observed = drive(context.system, lambda: context.capture(setup=setup))
        assert context.received == context.expected
        fabric = context.system.topology.fabric
        severed = sum(switch.routes_severed
                      for switch in fabric.switches.values())
        assert (severed > 0) == (kill_at_us is not None)
        observed["final"] = context.final_report()
        return observed

    twin(monkeypatch, scenario)


class _BundleRun(ResumableRun):
    """A resumable run that keeps every bundle it captures."""

    def __init__(self, *args, **kwargs) -> None:
        self.bundles: list[str] = []
        self.soon_waiting_total = 0
        super().__init__(*args, **kwargs)

    def checkpoint(self) -> Snapshot:
        snapshot = super().checkpoint()
        self.bundles.append(snapshot.to_json())
        self.soon_waiting_total += soon_waiting(self.context.system.sim)
        return snapshot


def test_watchdog_rollback(monkeypatch):
    def scenario():
        tracer = TraceRecorder()

        def traced_build(name, params):
            context = build_workload(name, params)
            context.system.trace(tracer=tracer)
            return context

        # Every attempt's system, the rolled-back rebuild included,
        # records into the one tracer.
        with monkeypatch.context() as patch:
            patch.setattr(resume, "build_workload", traced_build)
            run = _BundleRun("watchdog_stream", {"words": 24, "seed": 0},
                             policy=CheckpointPolicy(every_events=EVERY,
                                                     retain=4))
            recovery = run.run()
        assert recovery.payload["rollbacks"] == 1
        sim = run.context.system.sim
        return {
            "recovery": recovery.to_json(),
            "final": run.final_report(),
            "state": run.context.system.snapshot_state(),
            "trace": tracer.to_jsonl(),
            "counters": (sim.events_processed, sim.snapshot_state()["seq"],
                         sim.queue_depth_high_water),
            "bundles": run.bundles,
            "soon_waiting_total": run.soon_waiting_total,
        }

    twin(monkeypatch, scenario)
