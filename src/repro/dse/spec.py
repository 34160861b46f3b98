"""Declarative design-space sweeps: axes, objectives, identity.

A :class:`SweepSpec` is the DSE engine's unit of intent: a registered
workload, the parameters every point shares, the axes to sweep
(topology x link aggregation x slice counts x DVFS ladder x policy x
seeds — any workload parameter works), and the *objectives* the Pareto
analysis optimises over.  It expands through the farm's
:class:`~repro.farm.spec.MatrixSpec`, so a sweep inherits the farm's
content-addressed job identity: the same spec always produces the same
job list, in the same order, with the same digests.

JSON form (``repro dse submit --sweep sweep.json``)::

    {
      "workload": "demo",
      "sweep": {
        "topology": ["lattice", "mesh", "torus"],
        "freq_mhz": [500, 250],
        "seed":     [1, 2]
      },
      "objectives": [
        {"key": "gips", "goal": "max"},
        {"key": "mean_power_w", "goal": "min"},
        {"key": "energy_per_instr_pj", "goal": "min"}
      ]
    }

Objectives name metric keys of the report cells (see
:mod:`repro.dse.report` for the extracted set) with a ``goal`` of
``"min"`` or ``"max"``.  Omitted objectives default to the paper's
trio: GIPS (max) vs mean power (min) vs energy per instruction (min).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.checkpoint.snapshot import content_digest
from repro.farm.spec import FarmError, MatrixSpec

#: Goals an objective may declare.
GOALS = ("min", "max")

#: The paper's default trade-off trio: throughput vs power vs E/C.
DEFAULT_OBJECTIVES = (
    ("gips", "max"),
    ("mean_power_w", "min"),
    ("energy_per_instr_pj", "min"),
)


@dataclass(frozen=True)
class Objective:
    """One optimisation axis: a cell metric key plus its direction."""

    key: str
    goal: str = "min"

    def __post_init__(self) -> None:
        if not self.key:
            raise FarmError("objective needs a metric key")
        if self.goal not in GOALS:
            raise FarmError(
                f"objective {self.key!r} goal must be one of {GOALS}, "
                f"not {self.goal!r}"
            )

    def better(self, a: float, b: float) -> bool:
        """True when value ``a`` is strictly better than ``b``."""
        return a > b if self.goal == "max" else a < b

    def to_dict(self) -> dict:
        return {"key": self.key, "goal": self.goal}

    @classmethod
    def from_dict(cls, data) -> "Objective":
        if isinstance(data, Objective):
            return data
        if isinstance(data, (list, tuple)):
            key, goal = data
            return cls(key=str(key), goal=str(goal))
        return cls(key=str(data["key"]), goal=str(data.get("goal", "min")))

    def __str__(self) -> str:
        return f"{self.key}({self.goal})"


def default_objectives() -> tuple[Objective, ...]:
    """The GIPS / W / E-per-C trio as objective objects."""
    return tuple(Objective(key, goal) for key, goal in DEFAULT_OBJECTIVES)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative design-space sweep plus its optimisation goals."""

    workload: str
    base: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    objectives: tuple = ()

    def __post_init__(self) -> None:
        # Delegate workload/axis validation to the farm matrix.
        self.to_matrix()
        resolved = tuple(
            Objective.from_dict(obj)
            for obj in (self.objectives or default_objectives())
        )
        keys = [obj.key for obj in resolved]
        if len(set(keys)) != len(keys):
            raise FarmError(f"duplicate objective keys: {keys}")
        object.__setattr__(self, "objectives", resolved)

    def to_matrix(self) -> MatrixSpec:
        """The farm matrix this sweep expands through."""
        return MatrixSpec(
            workload=self.workload, base=dict(self.base),
            sweep=dict(self.sweep),
        )

    def jobs(self):
        """The expanded job list (deterministic order, deduped)."""
        return self.to_matrix().jobs()

    @property
    def num_points(self) -> int:
        """Number of distinct design points (after dedupe)."""
        return len(self.jobs())

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical spec — the sweep's content address."""
        return content_digest(self.to_dict())

    @property
    def sweep_id(self) -> str:
        """Short content-addressed id (first 12 digest hex chars)."""
        return self.digest[:12]

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "base": dict(self.base),
            "sweep": {k: list(v) for k, v in self.sweep.items()},
            "objectives": [obj.to_dict() for obj in self.objectives],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if "workload" not in data:
            raise FarmError("sweep spec needs a 'workload' field")
        return cls(
            workload=data["workload"],
            base=dict(data.get("base", {})),
            sweep=dict(data.get("sweep", {})),
            objectives=tuple(data.get("objectives", ())),
        )

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise FarmError(f"unparseable sweep spec: {error}") from error
        return cls.from_dict(data)

    def __repr__(self) -> str:
        return (
            f"<SweepSpec {self.workload!r} {len(self.sweep)} axes "
            f"{self.num_points} points {self.sweep_id}>"
        )
