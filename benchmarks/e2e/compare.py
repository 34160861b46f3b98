#!/usr/bin/env python3
"""Compare two checkouts on the end-to-end benchmark, pair by pair.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seed 1]

Each directory is a checkout holding ``BENCHMARK.json`` and this
benchmark.  For every workload the two sides run ``--pairs`` times in
alternating order (parent first in even pairs, change first in odd
ones), with the same seed and the benchmark's run length.  Each
end-to-end metric gets one verdict, using the bounds and directions of
the parent's ``BENCHMARK.json``:

- ``gain``: over at least 10 pairs, the change wins at least 9 in 10
  (ties count for neither) and the medians differ by more than the
  parent's interquartile range, in the better direction, with no more
  failed ops than the parent;
- ``unresolved``: the parent's own interquartile range is wider than
  the bound, and not every change run beats every parent run;
- ``regression``: the change's median is worse than the parent's by
  more than the bound;
- ``within``: none of the above;
- ``missing``: a side reported fewer than two runs.

A run that exits non-zero or prints no result line fails as many ops as
the largest run of that workload attempted, and it wins no pair.
Prints one row per workload and, last, one JSON line; exits 1 when any
metric regressed or the change failed more ops than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNNER = Path("benchmarks") / "e2e" / "run.py"
WIN_SHARE = 0.9
#: Fewer pairs than this never support a gain.
MIN_PAIRS_FOR_GAIN = 10


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in ``checkout``: the parsed result line, or None
    when the run exited non-zero or printed no result."""
    command = [sys.executable, str(RUNNER), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def verdict(parent: list[float | None], change: list[float | None], better: str,
            bound: float, more_failures: bool) -> dict:
    """The section-8 verdict for one metric on one workload.

    ``parent[i]`` and ``change[i]`` are pair ``i``; None is a run that
    reported nothing, which counts as a lost pair.
    """
    sign = 1 if better == "higher" else -1
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change)
               if p is not None and c is not None and sign * (c - p) > 0)
    parent = [p for p in parent if p is not None]
    change = [c for c in change if c is not None]
    if len(parent) < 2 or len(change) < 2:
        return {"verdict": "missing", "wins": wins, "pairs": pairs,
                "parent": None, "change": None, "worse_share": None}
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    parent_iqr = p_q3 - p_q1
    worse_share = -sign * (c_med - p_med) / p_med
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (pairs >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE * pairs
            and sign * (c_med - p_med) > parent_iqr and not more_failures):
        label = "gain"
    elif parent_iqr / p_med > bound and not all_better:
        label = "unresolved"
    elif worse_share > bound:
        label = "regression"
    else:
        label = "within"
    return {
        "verdict": label, "wins": wins, "pairs": pairs,
        "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
        "worse_share": worse_share,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    report: dict[str, dict] = {}
    failing = False
    for name in (w["name"] for w in spec["workloads"]):
        sides: dict[str, list[dict | None]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                sides[side].append(
                    run_side(checkout, name, args.seed, spec["run_seconds"]))
        crash_ops = max((r["attempted"] for runs in sides.values() for r in runs
                         if r is not None), default=1)
        failed = {side: sum(crash_ops if r is None else r["failed"] for r in runs)
                  for side, runs in sides.items()}
        more_failures = failed["change"] > failed["parent"]
        row = {"failed": failed, "metrics": {}}
        for metric in spec["end_to_end"]:
            values = {side: [None if r is None else r["metrics"][metric["name"]]["value"]
                             for r in runs]
                      for side, runs in sides.items()}
            row["metrics"][metric["name"]] = verdict(
                values["parent"], values["change"], metric["better"],
                metric["bound"], more_failures)
        report[name] = row
        failing |= more_failures or any(
            m["verdict"] == "regression" for m in row["metrics"].values())
        cells = ", ".join(
            f"{metric} {m['verdict']} ({m['wins']}/{m['pairs']}"
            + (f", {m['parent'][1]:.4g} -> {m['change'][1]:.4g})" if m["parent"] else ")")
            for metric, m in row["metrics"].items())
        print(f"{name}: failed {failed['parent']} -> {failed['change']}; {cells}",
              flush=True)
    print(json.dumps(report))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
