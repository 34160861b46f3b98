"""`SwallowSystem` — the paper's platform as one object.

Builds the machine (topology + cores + power rails + measurement
boards), optionally attaches Ethernet bridges, and exposes the
operations a Swallow user has: open channels, spawn programs or
behavioural tasks, run, scale frequency, and read energy — the
"energy transparency" loop.
"""

from __future__ import annotations

from repro.apps.channels import AppChannel
from repro.board.assembly import MachineAssembly, build_machine
from repro.core.transparency import EnergyReport, build_report
from repro.network.ethernet import EthernetBridge
from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.obs.spans import Span, SpanRecorder
from repro.sim import Frequency, Simulator, TraceRecorder, us
from repro.xs1.assembler import Program
from repro.xs1.behavioral import BehavioralThread
from repro.xs1.core import XCore
from repro.xs1.thread import IsaThread


class SwallowSystem:
    """A complete, runnable Swallow machine."""

    def __init__(
        self,
        slices_x: int = 1,
        slices_y: int = 1,
        frequency: Frequency | None = None,
        sim: Simulator | None = None,
        ethernet_columns: tuple[int, ...] = (),
        metrics: bool | MetricsRegistry = True,
        **machine_kwargs,
    ):
        self.sim = sim or Simulator()
        self.machine: MachineAssembly = build_machine(
            self.sim, slices_x=slices_x, slices_y=slices_y,
            frequency=frequency, **machine_kwargs,
        )
        self.bridges = [
            EthernetBridge.attach(self.machine.topology, column=column)
            for column in ethernet_columns
        ]
        #: The machine-wide metrics registry.  ``metrics=False`` builds
        #: a disabled registry (near-zero overhead, empty snapshots);
        #: passing a :class:`~repro.obs.MetricsRegistry` shares one
        #: registry across systems.
        self.metrics = (
            metrics if isinstance(metrics, MetricsRegistry)
            else MetricsRegistry(enabled=bool(metrics))
        )
        self.sim.register_metrics(self.metrics)
        self.machine.register_metrics(self.metrics)
        #: Machine-wide causal-span recorder; created on first use via
        #: :meth:`spans`.
        self.span_recorder: SpanRecorder | None = None

    # -- structure ---------------------------------------------------------------

    @property
    def cores(self) -> list[XCore]:
        """Every core, slice by slice."""
        return self.machine.cores

    @property
    def topology(self):
        """The unwoven-lattice topology."""
        return self.machine.topology

    @property
    def accounting(self):
        """The machine-wide energy ledger."""
        return self.machine.accounting

    @property
    def num_cores(self) -> int:
        """Total cores in the machine."""
        return len(self.machine.cores)

    def core(self, index: int) -> XCore:
        """Core by position (slice-major order)."""
        return self.machine.cores[index]

    def measurement_board(self, sx: int = 0, sy: int = 0):
        """A slice's five-channel ADC board (§II)."""
        return self.machine.slice_board(sx, sy).measurement

    # -- programming ---------------------------------------------------------------

    def channel(self, core_a: XCore, core_b: XCore) -> AppChannel:
        """Open a channel between two cores."""
        return AppChannel.between(core_a, core_b)

    def spawn(self, core: XCore, program: Program, **kwargs) -> IsaThread:
        """Start an assembled program on a hardware thread of ``core``."""
        return core.spawn(program, **kwargs)

    def spawn_task(
        self,
        core: XCore,
        generator,
        name: str | None = None,
        span: Span | None = None,
    ) -> BehavioralThread:
        """Start a behavioural task on ``core``.

        With a ``span`` (see :meth:`spans`), the task's instructions,
        sends and per-hop wire traffic are charged to it; the span opens
        now and closes when the task halts.
        """
        thread = BehavioralThread(core, generator, name=name)
        if span is not None:
            if span.node_id is None:
                span.node_id = core.node_id
            span.begin(self.sim.now)
            thread.span = span
        return thread

    # -- execution -----------------------------------------------------------------

    def run(self, max_events: int | None = None) -> int:
        """Run the simulation until idle (all threads blocked or halted)."""
        return self.sim.run(max_events=max_events)

    def run_for_us(self, microseconds: float) -> int:
        """Run for a fixed span of simulated time."""
        return self.sim.run_for(us(microseconds))

    def set_frequency(self, frequency: Frequency, cores: list[XCore] | None = None) -> None:
        """Frequency-scale some or all cores (paper §III.B)."""
        for core in cores if cores is not None else self.cores:
            core.set_frequency(frequency)

    @property
    def all_halted(self) -> bool:
        """True when every spawned thread on every core has finished."""
        return all(core.all_halted for core in self.cores)

    # -- transparency -----------------------------------------------------------------

    def energy_report(self) -> EnergyReport:
        """Snapshot of where the energy went (the headline feature)."""
        return build_report(self)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Collect every published metric series right now."""
        return self.metrics.snapshot()

    def trace(self, kinds=None, capacity: int | None = None) -> TraceRecorder:
        """Attach one machine-wide trace recorder as ``sim.tracer``.

        Every component reads the kernel's tracer, so the recorder gets
        core ``issue``; switch ``route_open``, ``route_close``,
        ``route_severed`` and ``deliver``; link ``token``,
        ``token_dropped`` and ``token_corrupted``; ADC ``sample``; and
        ``watchdog.fired`` records from now on, also when attached
        mid-run (the cores end their silent ``Compute`` runs).  Calling
        again replaces it,
        ``sim.tracer = None`` detaches it, and a watchdog rollback hands
        it to the rebuilt system.  ``kinds`` filters at record time;
        ``capacity`` bounds memory with flight-recorder (keep-newest)
        semantics.  Export the result with
        :meth:`~repro.sim.tracing.TraceRecorder.to_chrome_trace` or
        :meth:`~repro.sim.tracing.TraceRecorder.to_jsonl`.
        """
        self.sim.attach_tracer(TraceRecorder(kinds=kinds, capacity=capacity))
        return self.sim.tracer

    def netscope(self, window_ps: int = 1_000_000):
        """Attach the fabric observatory (created on first call).

        Instruments every link and switch port with windowed telemetry
        probes (see :class:`repro.obs.netscope.NetScope`) and registers
        its blocked-time series with the system metrics registry.  Pure
        observer: attaching it never changes the event schedule.
        """
        from repro.obs.netscope import NetScope

        fabric = self.topology.fabric
        if fabric.netscope is None:
            scope = NetScope(fabric, topology=self.topology,
                             window_ps=window_ps)
            scope.register_metrics(self.metrics)
        return fabric.netscope

    def spans(self, trace_id: int = 1) -> SpanRecorder:
        """The machine-wide causal-span recorder (created on first call).

        Create spans from it, attach them to tasks via
        :meth:`spawn_task`, and export with
        :func:`repro.obs.energyscope.attribute_energy` or the Chrome
        trace writer (flow events across cores).
        """
        if self.span_recorder is None:
            self.span_recorder = SpanRecorder(trace_id=trace_id)
        return self.span_recorder

    def energy_attribution(self):
        """Per-span energy partition; see :func:`attribute_energy`."""
        from repro.obs.energyscope import attribute_energy

        return attribute_energy(self, self.span_recorder)

    # -- checkpointing (see repro.checkpoint) ------------------------------------

    def snapshot_state(self) -> dict:
        """Canonical state of the whole platform, one dict per layer.

        Aggregates the per-component ``snapshot_state()`` hooks — event
        kernel, cores (threads, memories, chanends), fabric (switches,
        links) and the energy ledger.  Runtime layers that live *above*
        the platform (NanoOS, FaultCampaign, Watchdog) snapshot
        themselves; :class:`repro.checkpoint.Snapshot` stitches both
        halves together.
        """
        return {
            "sim": self.sim.snapshot_state(),
            "cores": {
                str(core.node_id): core.snapshot_state()
                for core in sorted(self.cores, key=lambda c: c.node_id)
            },
            "fabric": self.topology.fabric.snapshot_state(),
            "energy": self.accounting.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Verify a replayed platform against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, "system")

    def measured_gips(self) -> float:
        """Aggregate instruction throughput achieved so far, in GIPS."""
        if self.sim.now == 0:
            return 0.0
        total = sum(core.stats.total_instructions for core in self.cores)
        return total / (self.sim.now / 1e12) / 1e9

    def __repr__(self) -> str:
        return (
            f"<SwallowSystem {self.machine.topology.slices_x}x"
            f"{self.machine.topology.slices_y} slices, {self.num_cores} cores, "
            f"{len(self.bridges)} bridge(s)>"
        )
