"""Job specifications — the farm's unit of work.

A :class:`JobSpec` is one simulation to run: a registered workload name
(see :mod:`repro.checkpoint.workloads`) plus a JSON-able params dict.
Its identity is *content-addressed*: :attr:`JobSpec.digest` is the
SHA-256 of the canonical JSON of ``{"workload": ..., "params": ...}``,
so two specs with the same configuration are the same job — the key
the :class:`~repro.farm.cache.ResultCache` caches under and the
:class:`~repro.farm.queue.JobQueue` dedupes on.  Because every
registered workload is a pure function of its params, the digest names
the *result* as much as the job.

A sweep of jobs is declared by :class:`repro.dse.SweepSpec`, which
expands into :class:`JobSpec` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checkpoint.snapshot import canonical_json, content_digest


class FarmError(RuntimeError):
    """Invalid spec, queue state, or an impossible farm operation."""


@dataclass(frozen=True)
class JobSpec:
    """One simulation job: a rebuildable workload plus its params."""

    workload: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.workload:
            raise FarmError("job needs a workload name")
        try:
            canonical_json(self.params)
        except TypeError as error:
            raise FarmError(
                f"job params must be JSON-able: {error}"
            ) from error

    @property
    def config(self) -> dict:
        """The canonical configuration object the digest is taken over."""
        return {"workload": self.workload, "params": dict(self.params)}

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical config — the content address."""
        return content_digest(self.config)

    @property
    def job_id(self) -> str:
        """Short content-addressed id (first 12 digest hex chars)."""
        return self.digest[:12]

    def to_dict(self) -> dict:
        return self.config

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            workload=data["workload"], params=dict(data.get("params", {}))
        )

    def __repr__(self) -> str:
        return f"<JobSpec {self.workload!r} {self.job_id}>"
