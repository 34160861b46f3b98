"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``   — system inventory of a configured machine;
* ``tables`` — print the paper's derived tables (I, II, III, Fig. 2);
* ``isa``    — list the implemented instruction set;
* ``figures`` — export every paper figure's data series as CSV;
* ``topology`` — draw the lattice;
* ``run WORKLOAD`` — run a registered workload (see
  :data:`repro.checkpoint.WORKLOADS`; ``--params`` JSON sets its
  params) on one resumable-run loop and print its time and energy.
  ``--out DIR`` receives fixed-name exports: ``report.json`` (the final
  report plus the recovery record), the netscope views when
  ``"netscope": true``, the span exports for a span workload, and the
  ``--observe trace,profile`` and ``--heartbeat-every`` outputs.
  ``--checkpoint-every``/``--checkpoint-dir`` capture bundles, a
  ``--checkpoint-dir`` that already holds bundles is resumed, and
  ``--kill-after-events`` simulates a crash (exit code 75).  Exit 1
  when the stream was not delivered or the run ended ``exhausted``
  (its model raised ``ResourceError``);
* ``sweep [SPEC] --dir DIR`` — submit a sweep spec (a workload, base
  params, sweep axes and objectives; see :class:`repro.dse.SweepSpec`)
  into DIR, or resume DIR's saved spec; fan its content-addressed jobs
  out across worker processes with per-job checkpoints and heartbeats
  (``--preempt JOB@N`` kills an attempt mid-run; it resumes
  byte-identically on another worker; unchanged configs are served
  from the result cache); print the folded report, its Pareto front
  and the farm's scheduling summary, and write ``report.json``,
  ``front.json``, ``front.csv``, ``timeline.json``, ``farm.json`` and
  (for netscope jobs) ``heatmap.json`` into DIR.  Exit 0 when every
  job is done, 1 when one failed, 75 while jobs remain, 2 on a bad
  spec; ``--status`` prints the live heartbeat view.

The simulator's own speed is measured outside the CLI, by the
end-to-end benchmark (``benchmarks/e2e/run.py`` and ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from repro.checkpoint.resume import EXIT_KILLED
from repro.farm.worker import DEFAULT_CHECKPOINT_EVERY


def cmd_info(args: argparse.Namespace) -> int:
    from repro import SwallowSystem
    from repro.board import slice_power
    from repro.analysis import system_gips

    system = SwallowSystem(slices_x=args.slices_x, slices_y=args.slices_y)
    topology = system.topology
    print(f"Swallow machine: {topology.slices_x} x {topology.slices_y} slices")
    print(f"  cores:            {system.num_cores}")
    print(f"  packages:         {len(topology.packages)}")
    print(f"  network links:    {len(topology.fabric.links) // 2} full-duplex")
    print(f"  peak throughput:  {system_gips(system.num_cores):.1f} GIPS")
    per_slice = slice_power().total_w
    print(f"  max power:        {per_slice * topology.num_slices:.1f} W "
          f"({per_slice:.2f} W/slice)")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis import TABLE_II, TABLE_III, qualifying_processors
    from repro.energy import node_power_breakdown, table_i

    print("Table I - per-bit link energies")
    for row in table_i():
        print(f"  {row.link_type:<22} {row.data_rate_mbit:>7.1f} Mbit/s  "
              f"{row.max_power_mw:>7.1f} mW  {row.energy_per_bit_pj:>9.1f} pJ/bit")
    print("\nTable II - candidate processors (meets-all-requirements)")
    qualifiers = {p.name for p in qualifying_processors()}
    for p in TABLE_II:
        verdict = "YES" if p.name in qualifiers else "no"
        print(f"  {p.name:<28} {verdict}")
    print("\nTable III - many-core survey (uW/MHz)")
    for s in TABLE_III:
        low, high = s.computed_uw_per_mhz()
        value = f"{low:.0f}" if low == high else f"{low:.0f}-{high:.0f}"
        print(f"  {s.name:<12} {s.isa:<10} {value:>12}")
    print("\nFig. 2 - node power breakdown")
    breakdown = node_power_breakdown()
    for name, share in breakdown.shares().items():
        print(f"  {name.replace('_', ' '):<24} {share:>6.1%}")
    return 0


def cmd_isa(args: argparse.Namespace) -> int:
    from repro.xs1 import INSTRUCTION_SET

    print(f"{len(INSTRUCTION_SET)} instructions in the XS1 subset\n")
    by_class: dict[str, list] = {}
    for spec in INSTRUCTION_SET.values():
        by_class.setdefault(spec.energy_class.value, []).append(spec)
    for energy_class in sorted(by_class):
        print(f"[{energy_class}]")
        for spec in sorted(by_class[energy_class], key=lambda s: s.mnemonic):
            operands = " ".join(kind.value for kind in spec.operands)
            print(f"  {spec.mnemonic:<10} {operands:<14} {spec.description}")
        print()
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.figures import export_csv

    written = export_csv(args.out, args.names or None)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    from repro.network.topology import SwallowTopology
    from repro.network.visualize import render_summary, render_topology
    from repro.sim import Simulator

    topology = SwallowTopology(
        Simulator(), slices_x=args.slices_x, slices_y=args.slices_y
    )
    print(render_topology(topology))
    print()
    print(render_summary(topology))
    return 0


#: ``--observe profile`` wall-times one kernel event in this many.
PROFILE_SAMPLE_EVERY = 4
#: What ``--observe`` attaches.
OBSERVERS = ("trace", "profile")


def _observers(text: str) -> frozenset:
    """Argparse type for ``--observe``: comma-separated OBSERVERS."""
    names = frozenset(name for name in text.split(",") if name)
    unknown = sorted(names - set(OBSERVERS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown observer(s) {', '.join(unknown)}; "
            f"choose from {', '.join(OBSERVERS)}"
        )
    return names


def _compact_json(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _print_netscope(system, heatmap: dict) -> None:
    """The heat overlay and blocked-time summary of a netscope run."""
    from repro.network.visualize import render_heat

    print(render_heat(system.topology, heatmap))
    print()
    blocked = heatmap["blocked"]
    print(f"netscope: {heatmap['windows']} windows of "
          f"{heatmap['window_ps'] / 1e6:.3f} us over "
          f"{heatmap['elapsed_ps'] / 1e6:.3f} us")
    print(f"  blocked total     {blocked['total_ps'] / 1e6:.3f} us")
    for cause in sorted(blocked["by_cause"]):
        ps = blocked["by_cause"][cause]
        n = blocked["intervals"][cause]
        print(f"    {cause:<14} {ps / 1e6:>10.3f} us  ({n} interval(s))")
    cut = heatmap["slice_cut"]
    if cut["boundaries"]:
        print(f"  slice-cut min gap {cut['min_gap_ps']} ps over "
              f"{len(cut['boundaries'])} boundary(ies)")


def cmd_run(args: argparse.Namespace) -> int:
    """Run one registered workload; print and export what it observed."""
    from repro.checkpoint import (
        CheckpointError,
        CheckpointPolicy,
        CheckpointStore,
        ResumableRun,
    )
    from repro.obs.perf import RunHeartbeat

    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as err:
        print(f"run: --params is not JSON: {err}", file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("run: --params must be a JSON object", file=sys.stderr)
        return 2
    policy = None
    if args.checkpoint_every is not None:
        policy = CheckpointPolicy(every_events=args.checkpoint_every)
    store = None
    if args.checkpoint_dir:
        store = CheckpointStore(args.checkpoint_dir)
    try:
        run = ResumableRun.open(args.workload, params, policy=policy,
                                store=store)
    except CheckpointError as err:
        print(f"run: {err}", file=sys.stderr)
        return 2
    system = run.context.system
    if run.resumed_from is not None:
        print(f"resumed from {run.resumed_from} "
              f"(@ {system.sim.events_processed} events, verified)")
    written: list[str] = []

    def write(name: str, text: str) -> None:
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        written.append(path)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    tracer = system.trace() if "trace" in args.observe else None
    heartbeat = None
    beats_path = os.path.join(args.out, "heartbeat.jsonl") if args.out else None
    if args.heartbeat_every is not None:
        heartbeat = RunHeartbeat(args.heartbeat_every, out=beats_path)
    profiling = (
        system.sim.profile(wall_sample_every=PROFILE_SAMPLE_EVERY)
        if "profile" in args.observe else nullcontext()
    )
    with profiling as profile:
        recovery = run.run(kill_after_events=args.kill_after_events,
                           heartbeat=heartbeat)
    if heartbeat is not None and beats_path:
        written.append(beats_path)
    if run.killed:
        for path in written:
            print(f"wrote {path}")
        resume_note = (f"; rerun the same command to resume from "
                       f"{args.checkpoint_dir}" if args.checkpoint_dir else "")
        print(f"killed after {args.kill_after_events} events{resume_note}")
        return EXIT_KILLED

    context = run.context
    system = context.system
    # The final report comes first: attributing energy to spans changes
    # the system state whose digest the report records.
    document = run.final_report()
    document["recovery"] = recovery.to_dict()
    recorder = system.span_recorder
    attribution = system.energy_attribution() if recorder else None
    scope = system.topology.fabric.netscope
    heatmap = scope.heatmap() if scope is not None else None
    if args.out:
        from repro.obs.trace_export import (
            chrome_trace_json,
            profile_chrome_trace,
        )

        write("report.json", json.dumps(document, sort_keys=True))
        if attribution is not None:
            write("spans.jsonl", recorder.to_jsonl())
            write("energy.folded", attribution.folded())
            write("attribution.json",
                  json.dumps(attribution.to_dict(), sort_keys=True) + "\n")
        if heatmap is not None:
            write("heatmap.json", _compact_json(heatmap))
            write("counters.json", _compact_json({
                "displayTimeUnit": "ns",
                "traceEvents": scope.counter_events(),
            }))
            write("slice_cut.json", _compact_json(scope.slice_cut()))
        if tracer is not None:
            write("trace.json", chrome_trace_json(
                tracer.records, spans=recorder, netscope=scope))
        if profile is not None:
            write("profile.folded", profile.folded())
            write("meta_trace.json",
                  _compact_json(profile_chrome_trace(profile)))

    if context.campaign is not None:
        print(context.campaign.report().render())
    if context.expected:
        print(f"stream: {len(context.received)}/{len(context.expected)} "
              f"words delivered, "
              f"{'intact' if document['delivered_ok'] else 'CORRUPTED'}")
    elif context.received:
        print(f"streamed words: {context.received}")
    print(system.energy_report().render())
    if attribution is not None:
        print(recorder.render())
        print(attribution.render())
    if heatmap is not None:
        _print_netscope(system, heatmap)
    if profile is not None:
        print(profile.render())
        print()
        print(system.metrics_snapshot().render())
    if tracer is not None:
        print(f"recorded {len(tracer)} trace records; {tracer!r}")
    print(recovery.render())
    if run.exhausted is not None:
        print(f"  exhausted         {run.exhausted}")
    for path in written:
        print(f"wrote {path}")
    if run.exhausted is not None or document["delivered_ok"] is False:
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Submit (or resume) a sweep, drive it, print and export its report."""
    from repro import dse
    from repro.dse.pareto import render as render_front
    from repro.dse.report import render as render_report
    from repro.farm import FarmError, JobQueue, farm_progress, render_progress

    try:
        if args.status and args.spec:
            raise FarmError("--status runs nothing; drop SPEC")
        spec = (dse.SweepSpec.from_file(args.spec) if args.spec
                else dse.load_spec(args.dir))
        if args.status:
            dirs = dse.SweepDirs(args.dir)
            print(render_progress(
                farm_progress(JobQueue(dirs.queue_dir), dirs.work_dir)
            ))
            return 0
        report, farm = dse.run_sweep(
            spec, args.dir, num_workers=args.workers,
            preempt=dict(args.preempt or ()), cache_dir=args.cache_dir,
            checkpoint_every=args.checkpoint_every,
        )
    except (FarmError, FileNotFoundError) as err:
        print(f"sweep: {err}", file=sys.stderr)
        return 2
    front = dse.pareto_front(report)
    print(render_report(report))
    print()
    print(render_front(front))
    if len(front["objectives"]) > 1:
        print(dse.ascii_scatter(front))
    print(farm.render())
    written = [name for name in dse.EXPORTS
               if os.path.exists(os.path.join(args.dir, name))]
    print(f"wrote {', '.join(written)} to {args.dir}")
    counts = farm.to_dict()["counts"]
    if counts["failed"]:
        return 1
    if counts["pending"] + counts["running"] + counts["preempted"]:
        return EXIT_KILLED  # resumable: rerun the same directory
    return 0


def _positive_int(text: str) -> int:
    """Argparse type for values that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _preempt(text: str) -> tuple[str, int]:
    """Argparse type for ``--preempt``: ``JOB_ID@EVENTS``."""
    job_id, _, events = text.partition("@")
    if not job_id or not events.isdigit() or int(events) < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not JOB_ID@EVENTS (EVENTS >= 1)"
        )
    return job_id, int(events)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    from repro.checkpoint import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Swallow energy-transparent many-core simulator",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    info = subparsers.add_parser("info", help="machine inventory")
    info.add_argument("--slices-x", type=int, default=1)
    info.add_argument("--slices-y", type=int, default=1)
    info.set_defaults(func=cmd_info)
    tables = subparsers.add_parser("tables", help="print the paper's tables")
    tables.set_defaults(func=cmd_tables)
    isa = subparsers.add_parser("isa", help="list the implemented instruction set")
    isa.set_defaults(func=cmd_isa)
    figures = subparsers.add_parser(
        "figures", help="export every paper figure/table as CSV"
    )
    figures.add_argument("--out", default="figures_out", help="output directory")
    figures.add_argument("names", nargs="*", help="subset of figure names")
    figures.set_defaults(func=cmd_figures)
    topology = subparsers.add_parser("topology", aliases=["topo"],
                                     help="draw the lattice")
    topology.add_argument("--slices-x", type=int, default=1)
    topology.add_argument("--slices-y", type=int, default=1)
    topology.set_defaults(func=cmd_topology)
    run = subparsers.add_parser(
        "run",
        help="run a registered workload on the resumable-run loop; print "
             "its time and energy and export what was observed",
    )
    run.add_argument("workload", choices=sorted(WORKLOADS),
                     help="registered workload")
    run.add_argument("--params", default="{}", metavar="JSON",
                     help="workload params as a JSON object (seed, words, "
                          "slices_x, \"netscope\": true, ...)")
    run.add_argument("--observe", type=_observers, default=frozenset(),
                     metavar="trace,profile",
                     help="attach the tracer (trace.json) and/or the "
                          "kernel profiler (profile.folded, "
                          "meta_trace.json)")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="write report.json and every export here")
    run.add_argument("--checkpoint-every", type=_positive_int, default=None,
                     metavar="N",
                     help="capture a checkpoint bundle every N kernel events")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="bundle store; one that already holds bundles "
                          "is resumed from the newest")
    run.add_argument("--kill-after-events", type=_positive_int, default=None,
                     metavar="N",
                     help="simulate a crash after N events "
                          f"(exit code {EXIT_KILLED}; rerun to resume)")
    run.add_argument("--heartbeat-every", type=_positive_int, default=None,
                     metavar="N",
                     help="emit a JSONL progress snapshot every N kernel "
                          "events (heartbeat.jsonl)")
    run.set_defaults(func=cmd_run)
    sweep = subparsers.add_parser(
        "sweep",
        help="run a sweep spec (workload x axes x objectives) across "
             "worker processes; fold its report and Pareto front "
             f"(exit {EXIT_KILLED} while jobs remain: rerun to resume)",
    )
    sweep.add_argument("spec", nargs="?", default=None, metavar="SPEC",
                       help="sweep spec JSON to submit (default: resume "
                            "DIR/sweep.json)")
    sweep.add_argument("--dir", required=True, metavar="DIR",
                       help="sweep directory (spec, queue, cache, work "
                            "and exports)")
    sweep.add_argument("--status", action="store_true",
                       help="print the live per-job heartbeat view and "
                            "run nothing")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache (default DIR/cache; share it "
                            "across sweep directories to reuse results)")
    sweep.add_argument("--workers", type=_positive_int, default=2,
                       help="worker processes (default 2)")
    sweep.add_argument("--checkpoint-every", type=_positive_int,
                       default=DEFAULT_CHECKPOINT_EVERY, metavar="N",
                       help="per-job checkpoint cadence in kernel events "
                            f"(default {DEFAULT_CHECKPOINT_EVERY})")
    sweep.add_argument("--preempt", type=_preempt, action="append",
                       default=None, metavar="JOB_ID@EVENTS",
                       help="kill that job's next attempt after N fresh "
                            f"events (exit {EXIT_KILLED}); it resumes on "
                            "another worker — repeatable")
    sweep.set_defaults(func=cmd_sweep)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # A downstream pager/head closed the pipe mid-print: the Unix
        # convention is a quiet exit, not a traceback.  Detach stdout
        # so interpreter shutdown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
