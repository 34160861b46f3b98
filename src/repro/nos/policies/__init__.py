"""The policy zoo: named scheduler/DVFS bundles for NanoOS.

Each zoo entry names a (scheduler, DVFS) pair the ``policy_rt``
workload (which the policy-zoo sweep spec ``examples/policy_zoo.json``
runs) and the tests all build the same way::

    scheduler, dvfs = build_policy("ccedf", k=1)
    nos = NanoOS(system, policy=scheduler, dvfs=dvfs)

``k`` only matters to the ``kfault`` bundle (backup slots per task);
other bundles express their tolerance through ``NanoOS``'s plain
``fault_budget`` instead.
"""

from __future__ import annotations

from repro.nos.policies.base import (
    NO_DEADLINE_PS,
    DVFSPolicy,
    PolicyError,
    SchedulerPolicy,
)
from repro.nos.policies.dvfs import (
    CycleConservingDVFS,
    LookAheadDVFS,
    ThresholdDVFS,
)
from repro.nos.policies.kfault import KFaultPolicy
from repro.nos.policies.scheduling import (
    EDFPolicy,
    LeastLoadedPolicy,
    RMPolicy,
)

__all__ = [
    "NO_DEADLINE_PS",
    "POLICY_ZOO",
    "CycleConservingDVFS",
    "DVFSPolicy",
    "EDFPolicy",
    "KFaultPolicy",
    "LeastLoadedPolicy",
    "LookAheadDVFS",
    "PolicyError",
    "RMPolicy",
    "SchedulerPolicy",
    "ThresholdDVFS",
    "build_policy",
]

#: zoo name -> (scheduler factory, dvfs factory | None).  Factories take
#: the bundle's ``k`` so signatures stay uniform; most ignore it.
POLICY_ZOO = {
    "least_loaded": (lambda k: LeastLoadedPolicy(), None),
    "edf": (lambda k: EDFPolicy(), None),
    "rm": (lambda k: RMPolicy(), None),
    "ccedf": (lambda k: EDFPolicy(), lambda k: CycleConservingDVFS()),
    "laedf": (lambda k: EDFPolicy(), lambda k: LookAheadDVFS()),
    "kfault": (lambda k: KFaultPolicy(k=k), None),
    "threshold": (lambda k: LeastLoadedPolicy(), lambda k: ThresholdDVFS()),
}


def build_policy(
    name: str, k: int = 1
) -> tuple[SchedulerPolicy, DVFSPolicy | None]:
    """Build the named zoo bundle: ``(scheduler, dvfs-or-None)``."""
    entry = POLICY_ZOO.get(name)
    if entry is None:
        known = ", ".join(sorted(POLICY_ZOO))
        raise PolicyError(f"unknown policy {name!r}; known: {known}")
    scheduler_factory, dvfs_factory = entry
    scheduler = scheduler_factory(k)
    dvfs = dvfs_factory(k) if dvfs_factory is not None else None
    return scheduler, dvfs
