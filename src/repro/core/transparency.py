"""Energy-transparency reporting.

Turns the raw ledgers into the relationship the paper promises: "a
predictable relationship between software execution and hardware energy
consumption".  A report ties instruction counts, traffic, and joules
together per core and per category, and renders as a readable table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.platform import SwallowSystem


@dataclass(frozen=True)
class CoreEnergyRow:
    """One core's line in the report."""

    node_id: int
    instructions: int
    energy_j: float
    mean_power_mw: float

    @property
    def nj_per_instruction(self) -> float:
        """Average energy per executed instruction, nJ."""
        if self.instructions == 0:
            return 0.0
        return self.energy_j * 1e9 / self.instructions


@dataclass
class EnergyReport:
    """A full energy-transparency snapshot."""

    elapsed_s: float
    cores: list[CoreEnergyRow] = field(default_factory=list)
    link_energy_j: float = 0.0
    support_energy_j: float = 0.0
    link_bits_by_class: dict[str, float] = field(default_factory=dict)
    #: Link energy attributable to reliable-channel retransmissions —
    #: informational (a slice *of* ``link_energy_j``, not added on top),
    #: so fault campaigns show up in transparency reports.
    retry_energy_j: float = 0.0

    @property
    def core_energy_j(self) -> float:
        """Total core energy."""
        return sum(row.energy_j for row in self.cores)

    @property
    def total_energy_j(self) -> float:
        """Cores + links + support."""
        return self.core_energy_j + self.link_energy_j + self.support_energy_j

    @property
    def total_instructions(self) -> int:
        """Instructions executed machine-wide."""
        return sum(row.instructions for row in self.cores)

    @property
    def mean_power_w(self) -> float:
        """Average machine power over the report span."""
        if self.elapsed_s == 0:
            return 0.0
        return self.total_energy_j / self.elapsed_s

    def to_dict(self) -> dict:
        """A JSON-serialisable form of the report (for logging/export)."""
        return {
            "elapsed_s": self.elapsed_s,
            "total_energy_j": self.total_energy_j,
            "core_energy_j": self.core_energy_j,
            "link_energy_j": self.link_energy_j,
            "support_energy_j": self.support_energy_j,
            "retry_energy_j": self.retry_energy_j,
            "total_instructions": self.total_instructions,
            "mean_power_w": self.mean_power_w,
            "link_bits_by_class": dict(self.link_bits_by_class),
            "cores": [
                {
                    "node_id": row.node_id,
                    "instructions": row.instructions,
                    "energy_j": row.energy_j,
                    "mean_power_mw": row.mean_power_mw,
                }
                for row in self.cores
            ],
        }

    def render(self, top: int = 8) -> str:
        """A printable table (the ``top`` busiest cores plus totals)."""
        lines = [
            f"Energy report over {self.elapsed_s * 1e6:.1f} us",
            f"{'core':>6} {'instructions':>14} {'energy (uJ)':>12} "
            f"{'power (mW)':>11} {'nJ/instr':>9}",
        ]
        busiest = sorted(self.cores, key=lambda r: r.instructions, reverse=True)
        for row in busiest[:top]:
            lines.append(
                f"{row.node_id:>6} {row.instructions:>14} "
                f"{row.energy_j * 1e6:>12.2f} {row.mean_power_mw:>11.1f} "
                f"{row.nj_per_instruction:>9.2f}"
            )
        if len(busiest) > top:
            lines.append(f"  ... {len(busiest) - top} more cores")
        lines.append(
            f"totals: cores {self.core_energy_j * 1e6:.1f} uJ, "
            f"links {self.link_energy_j * 1e6:.3f} uJ, "
            f"support {self.support_energy_j * 1e6:.1f} uJ, "
            f"mean power {self.mean_power_w:.3f} W"
        )
        if self.retry_energy_j > 0:
            lines.append(
                f"of link energy, {self.retry_energy_j * 1e9:.2f} nJ "
                f"was retransmission (reliable-channel retries)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ThreadEnergyRow:
    """Energy attributed to one hardware thread."""

    thread_name: str
    node_id: int
    instructions: int
    energy_j: float


def attribute_to_threads(system: "SwallowSystem") -> list[ThreadEnergyRow]:
    """Split each core's energy across its threads by issued instructions.

    The XS1's fixed-cost pipeline makes this attribution well-posed: a
    thread's share of the core's issue slots *is* its share of the
    dynamic activity.  Cores that executed nothing attribute all their
    (idle) energy to a synthetic ``<idle>`` row, so totals are conserved.
    """
    accounting = system.accounting
    accounting.update()
    rows: list[ThreadEnergyRow] = []
    for core in system.cores:
        energy = accounting.trackers[core.node_id].energy_j
        total_instructions = core.stats.total_instructions
        if total_instructions == 0:
            rows.append(
                ThreadEnergyRow("<idle>", core.node_id, 0, energy)
            )
            continue
        attributed = 0.0
        for thread in core.threads:
            share = thread.instructions_executed / total_instructions
            thread_energy = energy * share
            attributed += thread_energy
            rows.append(
                ThreadEnergyRow(
                    thread.name, core.node_id,
                    thread.instructions_executed, thread_energy,
                )
            )
        remainder = energy - attributed
        if remainder > 1e-18:
            rows.append(ThreadEnergyRow("<idle>", core.node_id, 0, remainder))
    return rows


def build_report(system: "SwallowSystem") -> EnergyReport:
    """Assemble an :class:`EnergyReport` from a system's ledgers.

    When the system carries an enabled metrics registry
    (``SwallowSystem.metrics``), every number in the report is read out
    of one :meth:`~repro.obs.MetricsRegistry.snapshot` — the report *is*
    a view over the metrics, so the two can never disagree.  Systems
    built with ``metrics=False`` fall back to reading the ledgers
    directly; both paths draw from the same accumulators.
    """
    registry = getattr(system, "metrics", None)
    if registry is not None and registry.enabled:
        return _report_from_snapshot(system, registry.snapshot())
    accounting = system.accounting
    accounting.update()
    elapsed = accounting.elapsed_s
    rows = []
    for core in system.cores:
        tracker = accounting.trackers[core.node_id]
        energy = tracker.energy_j
        rows.append(
            CoreEnergyRow(
                node_id=core.node_id,
                instructions=core.stats.total_instructions,
                energy_j=energy,
                mean_power_mw=(energy / elapsed * 1e3) if elapsed else 0.0,
            )
        )
    stats = system.topology.fabric.link_stats_by_class()
    return EnergyReport(
        elapsed_s=elapsed,
        cores=rows,
        link_energy_j=accounting.link_energy_j,
        support_energy_j=accounting.support_energy_j(),
        link_bits_by_class={name: s["bits"] for name, s in stats.items()},
        retry_energy_j=accounting.retry_energy_j(),
    )


def _report_from_snapshot(system: "SwallowSystem", snapshot) -> EnergyReport:
    """Build the report purely from a metrics snapshot."""
    elapsed = snapshot.value("energy.elapsed_s", default=0.0)
    # One pass over the per-class series, summed per node in sample order
    # (what ``snapshot.sum(..., node=n)`` adds, without a scan per core).
    by_node: dict[str | None, float] = {}
    for labels, value in snapshot.series("core.instructions"):
        node = labels.get("node")
        by_node[node] = by_node.get(node, 0.0) + value
    rows = []
    for core in system.cores:
        node = str(core.node_id)
        energy = snapshot.value("energy.core_j", default=0.0, node=node)
        instructions = int(by_node.get(node, 0.0))
        rows.append(
            CoreEnergyRow(
                node_id=core.node_id,
                instructions=instructions,
                energy_j=energy,
                mean_power_mw=(energy / elapsed * 1e3) if elapsed else 0.0,
            )
        )
    return EnergyReport(
        elapsed_s=elapsed,
        cores=rows,
        link_energy_j=snapshot.value("energy.links_j", default=0.0),
        support_energy_j=snapshot.value("energy.support_j", default=0.0),
        link_bits_by_class={
            labels["class"]: bits
            for labels, bits in snapshot.series("fabric.bits")
        },
        retry_energy_j=snapshot.value("energy.retry_j", default=0.0),
    )
