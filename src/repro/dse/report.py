"""Fold per-job results into the canonical ``dse-report/2`` document.

One *cell* per design point, in the sweep's deterministic job order.
Every cell value is a pure function of the job's canonical result
document (the same bytes whether the job was simulated fresh, resumed
after an exit-75 preemption, or served from the result cache), so the
folded report — and its digest — is byte-stable across cold runs, warm
re-runs, and kill/resume.  Scheduling metadata (attempts, worker
slots, cache hits) deliberately never enters the document: it differs
between a cold and a warm farm pass and would break byte-identity.

A cell ``survived`` when its run completed.  A run that ended
``exhausted`` (its runtime raised an ``ExhaustedError``: a fault budget
exhausted, a full machine) is a result too: the cell keeps its metrics
and carries the error text under ``exhausted``.  A job with no result
document (it failed, or has not run yet) folds with no metrics.
"""

from __future__ import annotations

from repro.checkpoint.snapshot import canonical_json, content_digest

#: Report schema tag (bump on any incompatible shape change).
SCHEMA = "dse-report/2"


def extract_metrics(report: dict) -> dict:
    """The metric set of one job's canonical run report.

    Derived figures (GIPS, pJ per instruction, deadline-miss rate) are
    computed here — and only here — so every consumer (report cells,
    Pareto analysis, exports) agrees on their definition:

    * ``gips`` — giga-instructions per simulated second;
    * ``energy_per_instr_pj`` — the paper's E/C ratio, in pJ;
    * ``deadline_hit`` / ``deadline_miss`` / ``deadline_shed`` — the
      NanoOS deadline verdicts, summed over every ``nos.deadline_*``
      metric series, and ``deadline_miss_rate``, misses over scored
      deadlines (None when the workload scores no deadlines);
    * ``replacements`` — orphaned tasks NanoOS restarted on a survivor;
    * plus the raw totals they derive from.
    """
    energy = report.get("energy", {})
    elapsed_s = energy.get("elapsed_s")
    instructions = energy.get("total_instructions")
    total_energy_j = energy.get("total_energy_j")
    metrics = {
        "elapsed_s": elapsed_s,
        "total_instructions": instructions,
        "total_energy_j": total_energy_j,
        "mean_power_w": energy.get("mean_power_w"),
        "link_energy_j": energy.get("link_energy_j"),
        "gips": (
            instructions / elapsed_s / 1e9
            if instructions is not None and elapsed_s else None
        ),
        "energy_per_instr_pj": (
            total_energy_j / instructions * 1e12
            if total_energy_j is not None and instructions else None
        ),
    }
    snapshot = report.get("metrics", {})
    counts = deadline_counts(snapshot)
    scored = sum(counts.values())
    for verdict, count in counts.items():
        metrics[f"deadline_{verdict}"] = count
    metrics["deadline_miss_rate"] = (
        counts["miss"] / scored if scored else None
    )
    metrics["replacements"] = _series_total(snapshot, "nos.replacements")
    metrics["delivered_ok"] = report.get("delivered_ok")
    return metrics


def _series_total(snapshot: dict, name: str) -> int:
    """Sum one metric over every label set (``name{...}`` keys)."""
    return sum(
        int(value) for key, value in snapshot.items()
        if key.startswith(f"{name}{{")
    )


def deadline_counts(metric_snapshot: dict) -> dict:
    """Sum hit/miss/shed over every ``nos.deadline_*`` series."""
    return {
        verdict: _series_total(metric_snapshot, f"nos.deadline_{verdict}")
        for verdict in ("hit", "miss", "shed")
    }


def fold_results(spec, documents: dict) -> dict:
    """Fold a sweep's result documents into the ``dse-report/2`` body.

    ``documents`` maps job digest -> canonical result document (or
    None for a job that failed / never ran).  Cells appear in the
    sweep's job order, so a partially-failed sweep still folds
    deterministically.
    """
    cells = []
    for job in spec.jobs():
        cell = {
            "job_id": job.job_id,
            "digest": job.digest,
            "params": dict(job.params),
            "survived": False,
            "exhausted": None,
            "metrics": None,
            "state_digest": None,
        }
        document = documents.get(job.digest)
        if document is not None:
            report = document.get("report", {})
            cell.update(
                survived="exhausted" not in report,
                exhausted=report.get("exhausted"),
                metrics=extract_metrics(report),
                state_digest=report.get("state_digest"),
            )
        cells.append(cell)
    results = [c for c in cells if c["metrics"] is not None]
    survived = sum(1 for c in cells if c["survived"])
    body = {
        "schema": SCHEMA,
        "spec": spec.to_dict(),
        "sweep_id": spec.sweep_id,
        "points": len(cells),
        "cells": cells,
        "summary": {
            "survived": survived,
            "exhausted": len(results) - survived,
            "failed": len(cells) - len(results),
            "total_energy_j": sum(
                c["metrics"]["total_energy_j"] or 0.0 for c in results
            ),
            "total_elapsed_s": sum(
                c["metrics"]["elapsed_s"] or 0.0 for c in results
            ),
        },
    }
    report = dict(body)
    report["digest"] = content_digest(body)
    return report


def report_json(report: dict) -> str:
    """The report as canonical (byte-stable) JSON, newline-terminated."""
    return canonical_json(report) + "\n"


def render(report: dict) -> str:
    """A printable per-point table: the params that vary across the
    sweep, the cell's outcome, and one column per objective."""
    cells = report["cells"]
    keys = sorted({key for cell in cells for key in cell["params"]})
    varying = [
        key for key in keys
        if len({canonical_json(c["params"].get(key)) for c in cells}) > 1
    ]
    objectives = [obj["key"] for obj in report["spec"]["objectives"]]
    widths = {
        key: max([len(key)] + [len(str(c["params"].get(key, "-")))
                               for c in cells])
        for key in varying
    }
    summary = report["summary"]
    lines = [
        f"sweep report: {report['points']} points "
        f"({summary['survived']} survived, {summary['exhausted']} "
        f"exhausted, {summary['failed']} failed)  "
        f"sweep {report['sweep_id']}  digest {report['digest'][:12]}",
        f"  {'job':<14} "
        + " ".join(f"{key:>{widths[key]}}" for key in varying)
        + f" {'outcome':>9} "
        + " ".join(f"{key:>12}" for key in objectives),
    ]
    for cell in cells:
        params = " ".join(
            f"{str(cell['params'].get(key, '-')):>{widths[key]}}"
            for key in varying
        )
        outcome = (
            "ok" if cell["survived"]
            else "exhausted" if cell["exhausted"] is not None else "failed"
        )
        metrics = cell["metrics"] or {}
        figures = " ".join(
            f"{metrics[key]:>12.6g}" if metrics.get(key) is not None
            else f"{'-':>12}"
            for key in objectives
        )
        lines.append(f"  {cell['job_id']:<14} {params} {outcome:>9} "
                     f"{figures}")
    return "\n".join(lines)
