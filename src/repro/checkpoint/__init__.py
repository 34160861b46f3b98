"""Checkpoint/restore: deterministic snapshots, resume, and rollback.

See :mod:`repro.checkpoint.snapshot` for the capture/verify model,
:mod:`repro.checkpoint.policy` for cadence and retention,
:mod:`repro.checkpoint.workloads` for rebuildable workloads, and
:mod:`repro.checkpoint.resume` for the run driver and recovery ladder.
"""

from repro.checkpoint.policy import CheckpointPolicy, CheckpointStore
from repro.checkpoint.resume import EXIT_KILLED, RecoveryReport, ResumableRun
from repro.checkpoint.snapshot import (
    SCHEMA_VERSION,
    BundleIntegrityError,
    CheckpointError,
    Snapshot,
    canonical_json,
    content_digest,
)
from repro.checkpoint.workloads import (
    WORKLOAD_PARAMS,
    WORKLOADS,
    RunContext,
    build_workload,
    register_workload,
)

__all__ = [
    "EXIT_KILLED",
    "SCHEMA_VERSION",
    "BundleIntegrityError",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointStore",
    "RecoveryReport",
    "ResumableRun",
    "RunContext",
    "Snapshot",
    "WORKLOAD_PARAMS",
    "WORKLOADS",
    "build_workload",
    "canonical_json",
    "content_digest",
    "register_workload",
]
