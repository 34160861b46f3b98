"""Visual exports: fleet heat-map overlays and sweep timelines.

Two views make a folded sweep legible (the Kerrison & Eder
network-energy visualisation shapes, arXiv:1509.02830):

* :func:`fleet_overlay` — the campaign's merged netscope heat maps
  (one per grid shape; see :func:`repro.obs.netscope.fleet_heatmap`)
  annotated with Pareto-front membership, so "which design points are
  worth looking at" and "where their traffic went" live in one
  document;
* :func:`sweep_timeline` — a Chrome-trace (Perfetto-loadable) timeline
  of the sweep: one complete event per design point, laid out in job
  order along each sweep axis value's own track, with an energy
  counter running underneath.  Time is *simulated* time accumulated in
  job order, so the trace is a pure function of the report — byte
  stable, like every other export here.
"""

from __future__ import annotations

from repro.checkpoint.snapshot import canonical_json

#: Overlay document schema tag.
OVERLAY_SCHEMA = "dse-fleet-overlay/1"


def fleet_overlay(documents: list[dict], front: dict) -> dict | None:
    """The sweep's fleet heat map, tagged with front membership.

    ``documents`` are the sweep's result documents in job order; the
    ``report["netscope"]`` heat map of each one that carries it merges
    per grid shape (see :func:`repro.obs.netscope.fleet_heatmap`).
    Returns None when no job carried a heat map (netscope is opt-in via
    the ``"netscope": true`` workload param).  The overlay records which
    jobs sit on the ``pareto-front/1`` front (and the knee), so heat-map
    viewers can dim dominated configurations.
    """
    from repro.obs.netscope import fleet_heatmap

    heatmaps = [
        document["report"]["netscope"] for document in documents
        if "netscope" in document.get("report", {})
    ]
    if not heatmaps:
        return None
    return {
        "schema": OVERLAY_SCHEMA,
        "fleet": fleet_heatmap(heatmaps),
        "front_jobs": [p["job_id"] for p in front["front"]],
        "knee": front.get("knee"),
    }


def overlay_json(overlay: dict) -> str:
    """The overlay as canonical JSON, newline-terminated."""
    return canonical_json(overlay) + "\n"


def _track_axis(report: dict) -> str | None:
    """The sweep axis that names the timeline's tracks.

    Prefer ``topology`` (the natural visual grouping), else the first
    sorted axis that binds its own name (a bundled axis merges its
    values' keys instead); None when there is no such axis.
    """
    axes = sorted(
        axis for axis, values in report["spec"].get("sweep", {}).items()
        if not any(isinstance(value, dict) for value in values)
    )
    if not axes:
        return None
    return "topology" if "topology" in axes else axes[0]


def sweep_timeline(report: dict, front: dict | None = None) -> dict:
    """The sweep as a Chrome-trace document (``traceEvents`` format).

    Each design point becomes a complete event (``"ph": "X"``) whose
    duration is the point's simulated time; points are laid end to end
    in job order on one thread per track-axis value.  A ``sweep
    energy`` counter track accumulates total energy across the sweep.
    The objective values and front/knee membership (when a front
    document is given) land in each event's args.
    """
    track_axis = _track_axis(report)
    objectives = [obj["key"] for obj in report["spec"]["objectives"]]
    front_ids = set()
    knee = None
    if front is not None:
        front_ids = {p["job_id"] for p in front["front"]}
        knee = front.get("knee")
    pid = 1
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": f"dse sweep {report['sweep_id']}"},
    }]
    tracks: dict[str, int] = {}
    track_clock: dict[int, float] = {}
    energy_j = 0.0
    for cell in report["cells"]:
        value = (
            str(cell["params"].get(track_axis, "-"))
            if track_axis is not None else "sweep"
        )
        tid = tracks.get(value)
        if tid is None:
            tid = tracks[value] = len(tracks) + 1
            label = (
                f"{track_axis}={value}" if track_axis is not None else value
            )
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
            track_clock[tid] = 0.0
        metrics = cell["metrics"]
        elapsed_us = (
            (metrics["elapsed_s"] or 0.0) * 1e6 if metrics else 0.0
        )
        start_us = track_clock[tid]
        track_clock[tid] = start_us + max(elapsed_us, 0.001)
        args = {
            "job_id": cell["job_id"],
            "params": dict(cell["params"]),
            "survived": cell["survived"],
            "front": cell["job_id"] in front_ids,
            "knee": cell["job_id"] == knee,
        }
        if metrics:
            for key in objectives:
                args[key] = metrics.get(key)
            energy_j += metrics["total_energy_j"] or 0.0
        marker = "K " if args["knee"] else ("* " if args["front"] else "")
        events.append({
            "name": f"{marker}{cell['job_id']}",
            "ph": "X", "pid": pid, "tid": tid,
            "ts": start_us, "dur": max(elapsed_us, 0.001),
            "cat": "dse", "args": args,
        })
        events.append({
            "name": "sweep energy (J)", "ph": "C", "pid": pid,
            "ts": track_clock[tid],
            "args": {"total_energy_j": energy_j},
        })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def timeline_json(timeline: dict) -> str:
    """The timeline as canonical JSON, newline-terminated."""
    return canonical_json(timeline) + "\n"
