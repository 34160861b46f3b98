"""Declarative sweeps: axes, objectives, identity.

A :class:`SweepSpec` is the one spec ``repro sweep`` runs: a registered
workload, the parameters every point shares (``base``), the axes to
sweep (topology x link aggregation x slice counts x DVFS ladder x
policy x seeds — any parameter the workload declares), and the
*objectives* the Pareto analysis optimises over.  It expands into
content-addressed :class:`~repro.farm.spec.JobSpec` objects: the same
spec always produces the same job list, in the same order, with the
same digests.

JSON form (``repro sweep sweep.json --dir DIR``)::

    {
      "workload": "demo",
      "base":  {"slices_x": 1},
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

An axis value may also be a *dict*, a **bundle**: its keys merge into
the job's params instead of binding the axis name, so co-varying
parameters sweep as one dimension (a ``campaign`` axis of
``[{"seed": 1, "kills": 1}, {"seed": 2, "kills": 2}]`` is two jobs,
not four).

Objectives name metric keys of the report cells (see
:mod:`repro.dse.report` for the extracted set) with a ``goal`` of
``"min"`` or ``"max"``.  Omitted objectives default to the paper's
trio: GIPS (max) vs mean power (min) vs energy per instruction (min).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from repro.checkpoint.snapshot import content_digest
from repro.checkpoint.workloads import WORKLOAD_PARAMS
from repro.farm.spec import FarmError, JobSpec

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
        if isinstance(data, (list, tuple)) and len(data) == 2:
            key, goal = data
            return cls(key=str(key), goal=str(goal))
        if isinstance(data, dict):
            return cls(key=str(data.get("key", "")),
                       goal=str(data.get("goal", "min")))
        raise FarmError(
            f"objective {data!r} is neither {{\"key\", \"goal\"}} nor "
            f"[key, goal]"
        )

    def __str__(self) -> str:
        return f"{self.key}({self.goal})"


def default_objectives() -> tuple[Objective, ...]:
    """The GIPS / W / E-per-C trio as objective objects."""
    return tuple(Objective(key, goal) for key, goal in DEFAULT_OBJECTIVES)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep over one workload's params, plus its goals.

    Construction refuses what no job could run: an unknown workload,
    an empty axis, and any params key (in ``base``, an axis name or a
    bundle) the workload's builder does not declare in
    :data:`~repro.checkpoint.workloads.WORKLOAD_PARAMS`.
    """

    workload: str
    base: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    objectives: tuple = ()

    def __post_init__(self) -> None:
        declared = WORKLOAD_PARAMS.get(self.workload)
        if declared is None:
            known = ", ".join(sorted(WORKLOAD_PARAMS))
            raise FarmError(
                f"unknown workload {self.workload!r}; known: {known}"
            )
        keys = set(self.base)
        for axis, values in self.sweep.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise FarmError(
                    f"sweep axis {axis!r} needs a non-empty value list"
                )
            for value in values:
                keys |= set(value) if isinstance(value, dict) else {axis}
        unknown = sorted(keys - declared)
        if unknown:
            raise FarmError(
                f"workload {self.workload!r} takes no param(s) "
                f"{', '.join(unknown)}; known: {', '.join(sorted(declared))}"
            )
        resolved = tuple(
            Objective.from_dict(obj)
            for obj in (self.objectives or default_objectives())
        )
        names = [obj.key for obj in resolved]
        if len(set(names)) != len(names):
            raise FarmError(f"duplicate objective keys: {names}")
        object.__setattr__(self, "objectives", resolved)

    def jobs(self) -> list[JobSpec]:
        """The expanded job list, in deterministic order.

        Axes iterate in sorted key order with values in listed order,
        so later axes (sorted last) vary fastest; duplicate
        configurations (e.g. a sweep axis repeated in ``base``)
        collapse to their first occurrence.
        """
        axes = sorted(self.sweep)
        specs: list[JobSpec] = []
        seen: set[str] = set()
        for combo in itertools.product(*(self.sweep[axis] for axis in axes)):
            params = dict(self.base)
            for axis, value in zip(axes, combo):
                if isinstance(value, dict):
                    params.update(value)
                else:
                    params[axis] = value
            spec = JobSpec(self.workload, params)
            if spec.digest not in seen:
                seen.add(spec.digest)
                specs.append(spec)
        return specs

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
        if not isinstance(data, dict) or "workload" not in data:
            raise FarmError("sweep spec needs a 'workload' field")
        base = data.get("base", {})
        sweep = data.get("sweep", {})
        objectives = data.get("objectives", [])
        if not (isinstance(base, dict) and isinstance(sweep, dict)
                and isinstance(objectives, list)):
            raise FarmError(
                "sweep spec 'base' and 'sweep' must be objects and "
                "'objectives' a list"
            )
        return cls(
            workload=data["workload"],
            base=dict(base),
            sweep=dict(sweep),
            objectives=tuple(objectives),
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
