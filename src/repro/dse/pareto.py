"""Pareto analysis: non-dominated fronts over configurable objectives.

A design point *dominates* another when it is no worse on every
objective and strictly better on at least one (objectives carry their
own min/max orientation).  :func:`pareto_front` extracts the
non-dominated front from a ``dse-report/2`` document's cells, prunes
the dominated points *with provenance* — every dominated point records
which front points dominate it and by how much per objective — and
identifies the front's knee point (the best-balanced trade-off: the
point closest to the normalised ideal).  Everything is deterministic:
stable orderings, canonical JSON, a content digest over the body.

Points that did not survive (a failed job, or a run that exhausted
its fault budget and stopped early) and points missing a value for any
objective (a workload that scores no deadlines swept with a deadline
objective) cannot be compared; they are set aside as ``unscored``
rather than silently winning or losing.
"""

from __future__ import annotations

import math

from repro.checkpoint.snapshot import canonical_json, content_digest
from repro.dse.spec import Objective, default_objectives

#: Front document schema tag (bump on any incompatible shape change).
SCHEMA = "pareto-front/1"


def _objectives(objectives) -> list[Objective]:
    if not objectives:
        return list(default_objectives())
    return [Objective.from_dict(obj) for obj in objectives]


def _values(cell: dict, objectives) -> list | None:
    """The cell's objective vector, or None when it cannot be scored."""
    metrics = cell.get("metrics")
    if not cell.get("survived") or metrics is None:
        return None
    values = [metrics.get(obj.key) for obj in objectives]
    if any(value is None for value in values):
        return None
    return values


def dominates(a: list, b: list, objectives) -> bool:
    """True when vector ``a`` dominates vector ``b``."""
    strictly_better = False
    for obj, value_a, value_b in zip(objectives, a, b):
        if obj.better(value_b, value_a):
            return False
        if obj.better(value_a, value_b):
            strictly_better = True
    return strictly_better


def _knee_id(front: list[dict], objectives) -> str | None:
    """The front's knee point: closest to the normalised ideal.

    Each objective normalises to [0, 1] over the front with 0 = best;
    the knee minimises Euclidean distance to the all-zero ideal.  Ties
    break on job id, so the choice is deterministic.
    """
    if not front:
        return None
    spans = []
    for index, obj in enumerate(objectives):
        values = [point["values"][index] for point in front]
        low, high = min(values), max(values)
        spans.append((obj, low, high))
    best = None
    for point in front:
        distance = 0.0
        for index, (obj, low, high) in enumerate(spans):
            if high == low:
                continue
            position = (point["values"][index] - low) / (high - low)
            if obj.goal == "max":
                position = 1.0 - position
            distance += position * position
        distance = math.sqrt(distance)
        key = (distance, point["job_id"])
        if best is None or key < best:
            best = key
            best_id = point["job_id"]
    return best_id


def pareto_front(report: dict, objectives=None) -> dict:
    """Extract the ``pareto-front/1`` document from a sweep report.

    ``objectives`` overrides the report spec's objectives, for
    re-scoring a finished report along other axes without re-running
    anything.
    """
    objectives = _objectives(
        objectives or report.get("spec", {}).get("objectives")
    )
    scored: list[dict] = []
    unscored: list[str] = []
    for cell in report["cells"]:
        values = _values(cell, objectives)
        if values is None:
            unscored.append(cell["job_id"])
            continue
        scored.append({
            "job_id": cell["job_id"],
            "params": dict(cell["params"]),
            "values": values,
            "metrics": {obj.key: value
                        for obj, value in zip(objectives, values)},
        })
    front: list[dict] = []
    dominated: list[dict] = []
    for point in scored:
        dominators = []
        for other in scored:
            if other is point:
                continue
            if dominates(other["values"], point["values"], objectives):
                dominators.append({
                    "job_id": other["job_id"],
                    "margins": {
                        obj.key: other["values"][i] - point["values"][i]
                        for i, obj in enumerate(objectives)
                    },
                })
        if dominators:
            dominated.append({
                "job_id": point["job_id"],
                "params": point["params"],
                "metrics": point["metrics"],
                "dominated_by": dominators,
            })
        else:
            front.append(point)
    knee = _knee_id(front, objectives)
    body = {
        "schema": SCHEMA,
        "sweep_id": report.get("sweep_id"),
        "objectives": [obj.to_dict() for obj in objectives],
        "points": len(report["cells"]),
        "front": [
            {
                "job_id": point["job_id"],
                "params": point["params"],
                "metrics": point["metrics"],
                "knee": point["job_id"] == knee,
            }
            for point in front
        ],
        "knee": knee,
        "dominated": dominated,
        "unscored": sorted(unscored),
    }
    document = dict(body)
    document["digest"] = content_digest(body)
    return document


def pareto_acceptance_check(front: dict) -> None:
    """Assert a front document is well-formed: non-empty, non-dominated.

    The brute-force check CI runs on every smoke sweep: every front
    point must be undominated by *any* front or dominated point, and
    every dominated point's recorded dominators must actually dominate
    it.  Raises :class:`AssertionError` with the offending pair.
    """
    objectives = [Objective.from_dict(obj) for obj in front["objectives"]]
    if not front["front"]:
        raise AssertionError("empty pareto front")
    everyone = list(front["front"]) + list(front["dominated"])
    vectors = {
        point["job_id"]: [point["metrics"][obj.key] for obj in objectives]
        for point in everyone
    }
    for point in front["front"]:
        for other in everyone:
            if other["job_id"] == point["job_id"]:
                continue
            if dominates(vectors[other["job_id"]],
                         vectors[point["job_id"]], objectives):
                raise AssertionError(
                    f"front point {point['job_id']} is dominated "
                    f"by {other['job_id']}"
                )
    for point in front["dominated"]:
        for dominator in point["dominated_by"]:
            if not dominates(vectors[dominator["job_id"]],
                             vectors[point["job_id"]], objectives):
                raise AssertionError(
                    f"recorded dominator {dominator['job_id']} does not "
                    f"dominate {point['job_id']}"
                )


def front_json(front: dict) -> str:
    """The front as canonical (byte-stable) JSON, newline-terminated."""
    return canonical_json(front) + "\n"


def front_csv(front: dict) -> str:
    """The front as CSV: params columns, then one column per objective.

    Rows appear in front order; the knee point carries ``knee=1``.
    Deterministic bytes — CI diffs this artifact.
    """
    param_keys = sorted({
        key for point in front["front"] for key in point["params"]
    })
    objective_keys = [obj["key"] for obj in front["objectives"]]
    header = ["job_id"] + param_keys + objective_keys + ["knee"]
    lines = [",".join(header)]
    for point in front["front"]:
        row = [point["job_id"]]
        row += [str(point["params"].get(key, "")) for key in param_keys]
        row += [repr(point["metrics"][key]) for key in objective_keys]
        row.append("1" if point["knee"] else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ASCII scatter (the CLI's Pareto view)
# ---------------------------------------------------------------------------


def ascii_scatter(
    front: dict,
    x_key: str | None = None,
    y_key: str | None = None,
    width: int = 64,
    height: int = 20,
) -> str:
    """Plot the design space on two objective axes, front marked.

    ``*`` = front point, ``K`` = knee, ``.`` = dominated point.  Axes
    default to the document's first two objectives.  Deterministic
    output — CI uploads it as an artifact.
    """
    objectives = front["objectives"]
    if len(objectives) < 2 and (x_key is None or y_key is None):
        raise ValueError("need two objectives (or explicit axes) to plot")
    x_key = x_key or objectives[0]["key"]
    y_key = y_key or objectives[1]["key"]
    points = []
    for point in front["front"]:
        marker = "K" if point["knee"] else "*"
        points.append((point["metrics"], marker))
    for point in front["dominated"]:
        points.append((point["metrics"], "."))
    coords = [
        (metrics[x_key], metrics[y_key], marker)
        for metrics, marker in points
        if metrics.get(x_key) is not None and metrics.get(y_key) is not None
    ]
    title = f"pareto: {y_key} vs {x_key} ({len(front['front'])} on front)"
    if not coords:
        return title + "\n  (no plottable points)"
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    # Plot dominated points first so front markers win shared cells.
    for x, y, marker in sorted(coords, key=lambda c: c[2] != "."):
        col = int((x - x_low) / x_span * (width - 1))
        row = (height - 1) - int((y - y_low) / y_span * (height - 1))
        grid[row][col] = marker
    lines = [title]
    for index, row in enumerate(grid):
        label = ""
        if index == 0:
            label = f"{y_high:.4g}"
        elif index == height - 1:
            label = f"{y_low:.4g}"
        lines.append(f"{label:>10} |" + "".join(row))
    lines.append(f"{'':>10} +" + "-" * width)
    lines.append(f"{'':>10}  {x_low:<.4g}{'':^{max(1, width - 16)}}{x_high:>.4g}")
    lines.append("  * front   K knee   . dominated")
    return "\n".join(lines)


def render(front: dict) -> str:
    """A printable front summary for the CLI."""
    objective_keys = [obj["key"] for obj in front["objectives"]]
    lines = [
        f"pareto front: {len(front['front'])}/{front['points']} points "
        f"non-dominated over "
        + " x ".join(f"{o['key']}({o['goal']})" for o in front["objectives"])
        + f"  ({front['digest'][:12]})",
        f"  {'job':<14} {'knee':>4} "
        + " ".join(f"{key:>20}" for key in objective_keys),
    ]
    for point in front["front"]:
        lines.append(
            f"  {point['job_id']:<14} {'K' if point['knee'] else '':>4} "
            + " ".join(f"{point['metrics'][key]:>20.6g}"
                       for key in objective_keys)
        )
    if front["dominated"]:
        lines.append(f"  dominated: {len(front['dominated'])} point(s)")
        for point in front["dominated"][:8]:
            top = point["dominated_by"][0]
            lines.append(
                f"    {point['job_id']} dominated by {top['job_id']} "
                + " ".join(
                    f"{key}{margin:+.3g}"
                    for key, margin in top["margins"].items()
                )
            )
        if len(front["dominated"]) > 8:
            lines.append(
                f"    ... and {len(front['dominated']) - 8} more"
            )
    if front["unscored"]:
        lines.append(f"  unscored: {', '.join(front['unscored'])}")
    return "\n".join(lines)
