"""FEST-style k-fault-tolerant placement with graceful degradation.

The policy guarantees that any ≤ k core deaths are absorbed without a
deadline miss: at submission every task reserves backup slots on k
cores disjoint from its primary, so when the primary dies the orphan
restarts on a pre-reserved survivor instead of competing for whatever
is least loaded at crash time.  Reservations count toward the load a
core appears to carry, keeping backups spread and genuinely spare.

Beyond k the guarantee is gone and the policy degrades instead of
raising: the dead core's orphans are shed lowest-criticality-first
(ties broken on task id), producing a deterministic shed ledger the
runtime records — the run completes with reduced service rather than
an unhandled :class:`~repro.xs1.errors.ExhaustedError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.nos.policies.base import PolicyError, SchedulerPolicy

if TYPE_CHECKING:
    from repro.core.nos import NanoOS, TaskHandle
    from repro.xs1.core import XCore


class KFaultPolicy(SchedulerPolicy):
    """Reserve backup slots on k disjoint cores per task; shed beyond k."""

    name = "kfault"

    def __init__(self, k: int = 1):
        if k < 0:
            raise PolicyError(f"k must be non-negative, got {k}")
        self.k = k
        #: task_id -> remaining backup node ids, nearest-ranked first.
        self.backups: dict[int, list[int]] = {}
        #: node_id -> live backup reservations on that core.
        self.reserved: dict[int, int] = {}

    # -- placement ----------------------------------------------------------

    def _weight(self, nos, core) -> tuple:
        """Load including reservations, so backups stay genuinely spare."""
        return (
            nos._load(core) + self.reserved.get(core.node_id, 0),
            core.node_id,
        )

    def choose(self, nos, candidates, handle=None):
        return min(candidates, key=lambda c: self._weight(nos, c))

    def on_submit(self, nos, handle):
        """Reserve backup slots on k healthy cores disjoint from primary."""
        taken = {handle.core.node_id}
        backups: list[int] = []
        for _ in range(self.k):
            pool = [
                c for c in nos.system.cores
                if not c.failed and c.node_id not in taken
            ]
            if not pool:
                break
            best = min(pool, key=lambda c: self._weight(nos, c))
            backups.append(best.node_id)
            taken.add(best.node_id)
            self.reserved[best.node_id] = (
                self.reserved.get(best.node_id, 0) + 1
            )
        self.backups[handle.task_id] = backups

    # -- healing ------------------------------------------------------------

    def replacement(self, nos, candidates, handle):
        """Restart the orphan on its first surviving reserved backup."""
        by_node = {c.node_id: c for c in candidates}
        remaining = self.backups.get(handle.task_id, [])
        for index, node_id in enumerate(remaining):
            core = by_node.get(node_id)
            if core is None:
                continue
            # Consume the reservation: the orphan now *occupies* the slot.
            del remaining[index]
            count = self.reserved.get(node_id, 0) - 1
            if count > 0:
                self.reserved[node_id] = count
            else:
                self.reserved.pop(node_id, None)
            return core
        # Backups all dead or saturated: fall back to spare capacity.
        return self.choose(nos, candidates, handle)

    # -- degradation --------------------------------------------------------

    def wants_degrade(self, nos) -> bool:
        """Beyond k healed failures the guarantee no longer holds."""
        return len(nos.failed_cores) >= self.k

    def degrade(self, nos, core, orphans):
        """Shed the dead core's orphans, lowest criticality first."""
        return sorted(orphans, key=lambda t: (t.criticality, t.task_id))

    # -- checkpointing ------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "backups": {
                str(task_id): list(nodes)
                for task_id, nodes in sorted(self.backups.items())
            },
            "reserved": {
                str(node_id): count
                for node_id, count in sorted(self.reserved.items())
            },
        }
