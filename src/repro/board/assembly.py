"""Physical assembly: chips, slices and multi-board machines.

Builds the pieces the paper photographs: an XS1-L2A package is two cores
on adjacent nodes; a slice is sixteen cores with five measured power
rails; a machine is a grid (or Fig. 1-style stack) of slices joined by
ribbon cables.  The network side lives in
:class:`repro.network.topology.SwallowTopology`; this module instantiates
the cores and the measurement hardware on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.accounting import EnergyAccounting
from repro.energy.measurement import MeasurementBoard, build_slice_rails
from repro.network.topology import SwallowTopology
from repro.sim import Frequency, Simulator
from repro.xs1.core import CoreConfig, XCore


@dataclass
class ChipAssembly:
    """One XS1-L2A package: two cores sharing a die."""

    x: int
    y: int
    vertical_core: XCore
    horizontal_core: XCore

    @property
    def cores(self) -> list[XCore]:
        """Both cores of the package."""
        return [self.vertical_core, self.horizontal_core]


@dataclass
class SliceAssembly:
    """One populated Swallow board."""

    sx: int
    sy: int
    chips: list[ChipAssembly]
    measurement: MeasurementBoard

    @property
    def cores(self) -> list[XCore]:
        """All sixteen cores, chip by chip."""
        return [core for chip in self.chips for core in chip.cores]


@dataclass
class MachineAssembly:
    """A full machine: topology + cores + per-slice measurement boards."""

    sim: Simulator
    topology: SwallowTopology
    accounting: EnergyAccounting
    slices: list[SliceAssembly] = field(default_factory=list)
    #: Every core in the machine, slice by slice and chip by chip; made
    #: once, when :func:`build_machine` has placed every slice.
    cores: list[XCore] = field(default_factory=list, init=False, repr=False)
    _cores_by_node: dict[int, XCore] = field(
        default_factory=dict, init=False, repr=False)

    def core_at_node(self, node_id: int) -> XCore:
        """The core occupying network node ``node_id``."""
        try:
            return self._cores_by_node[node_id]
        except KeyError:
            raise KeyError(f"no core at node {node_id}") from None

    def slice_board(self, sx: int, sy: int) -> SliceAssembly:
        """The slice at grid position (sx, sy)."""
        for board in self.slices:
            if (board.sx, board.sy) == (sx, sy):
                return board
        raise KeyError(f"no slice at ({sx}, {sy})")

    def register_metrics(self, registry) -> None:
        """Publish every component's series on one registry.

        Covers all cores, the whole network fabric (switches, links,
        per-class rollups), the energy ledger and every slice's
        measurement board — the one call
        :class:`~repro.core.platform.SwallowSystem` makes to light up
        ``system.metrics``.
        """
        for core in self.cores:
            core.register_metrics(registry)
        self.topology.fabric.register_metrics(registry)
        self.accounting.register_metrics(registry)
        for board in self.slices:
            board.measurement.register_metrics(
                registry, slice=f"{board.sx},{board.sy}"
            )


def build_machine(
    sim: Simulator,
    slices_x: int = 1,
    slices_y: int = 1,
    frequency: Frequency | None = None,
    core_config: CoreConfig | None = None,
    **topology_kwargs,
) -> MachineAssembly:
    """Assemble a machine of ``slices_x`` x ``slices_y`` boards.

    Every node of the topology gets a core; each slice gets the five-rail
    measurement board of §II; one :class:`EnergyAccounting` ledger spans
    the machine (the real system's per-slice data can be aggregated the
    same way over Ethernet).
    """
    frequency = frequency or Frequency(500_000_000)
    topology = SwallowTopology(
        sim, slices_x=slices_x, slices_y=slices_y,
        frequency=frequency, **topology_kwargs,
    )
    config = core_config or CoreConfig(frequency=frequency)
    cores_by_node: dict[int, XCore] = {}
    for node_id in topology.node_ids():
        cores_by_node[node_id] = XCore(
            sim, node_id, topology.fabric, config=config,
        )
    accounting = EnergyAccounting(
        sim, list(cores_by_node.values()), fabric=topology.fabric,
    )
    machine = MachineAssembly(sim=sim, topology=topology, accounting=accounting)
    from repro.network.routing import Layer
    from repro.network.topology import SLICE_PACKAGES_X, SLICE_PACKAGES_Y

    for sy in range(slices_y):
        for sx in range(slices_x):
            chips = []
            for local_y in range(SLICE_PACKAGES_Y):
                for local_x in range(SLICE_PACKAGES_X):
                    x = sx * SLICE_PACKAGES_X + local_x
                    y = sy * SLICE_PACKAGES_Y + local_y
                    chips.append(
                        ChipAssembly(
                            x=x,
                            y=y,
                            vertical_core=cores_by_node[
                                topology.node_at(x, y, Layer.VERTICAL)
                            ],
                            horizontal_core=cores_by_node[
                                topology.node_at(x, y, Layer.HORIZONTAL)
                            ],
                        )
                    )
            slice_cores = [core for chip in chips for core in chip.cores]
            board = SliceAssembly(
                sx=sx,
                sy=sy,
                chips=chips,
                measurement=MeasurementBoard(
                    sim, accounting, build_slice_rails(slice_cores),
                    name=f"adc{sx},{sy}",
                ),
            )
            machine.slices.append(board)
    machine.cores = [core for board in machine.slices for core in board.cores]
    machine._cores_by_node = cores_by_node
    return machine


def build_stack(sim: Simulator, boards: int = 8, **kwargs) -> MachineAssembly:
    """A Fig. 1-style vertical stack: ``boards`` slices in one column."""
    return build_machine(sim, slices_x=1, slices_y=boards, **kwargs)
