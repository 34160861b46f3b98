#!/usr/bin/env python3
"""End-to-end benchmark of the Swallow simulator (host time, one process).

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload isa_dense_480 --seed 1
    python3 benchmarks/e2e/run.py --workload noc_shift_480 --seed 2 --trace 1
    python3 benchmarks/e2e/run.py --all --seed 1

One invocation builds the workload from ``--seed``, times
``system.run()`` on fresh builds for ``--seconds`` seconds, checks every
output and the model digest, and prints each metric as
``name value unit``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run (``--trace-out FILE``
also writes its spans as a Chrome trace).  ``--all`` runs each workload
in its own subprocess, one after another; its last line is instead one
JSON object mapping each workload to that workload's result object, and
it stops at the first workload that exits non-zero.

The simulator is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _import_simulator() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"run.py: cannot import the simulator from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"run.py: imported repro from {repro.__file__}, not from {SRC}")


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    results = {}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    _import_simulator()
    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=list(WORKLOADS))
    target.add_argument("--all", action="store_true",
                        help="every workload, each in its own subprocess")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to keep measuring fresh runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: write the spans as a Chrome trace")
    args = parser.parse_args(argv)
    if args.all:
        return _run_all(args, list(WORKLOADS))
    if args.trace:
        result, info = harness.per_layer(args.workload, args.seed, args.seconds,
                                         trace_out=args.trace_out)
    else:
        result, info = harness.end_to_end(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed}")
    for key, value in info.items():
        print(f"# {key} {value}")
    print(f"ops {result['attempted']} ops_failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
