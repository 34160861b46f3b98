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
  ``--kill-after-events`` simulates a crash (exit code 75);
* ``farm`` — the campaign farm: ``submit`` expands a matrix spec
  (sweep over topology x frequency x seeds) into content-addressed
  jobs, ``run`` fans them out across worker processes with per-job
  checkpoints and heartbeats (``--preempt JOB@N`` kills an attempt
  mid-run; it resumes byte-identically on another worker), ``status``
  shows the live heartbeat-fed progress view, and ``report`` prints
  the aggregated campaign (unchanged configs are served from the
  result cache instead of re-simulating);
* ``dse`` — design-space exploration sweeps through the farm and
  their Pareto fronts;
* ``policies`` — the scheduler/DVFS policy-zoo ablation.

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
    for path in written:
        print(f"wrote {path}")
    return 1 if document["delivered_ok"] is False else 0


def _farm_handles(args: argparse.Namespace):
    """(queue, cache) from the shared farm directory flags."""
    from repro.farm import JobQueue, ResultCache

    cache_dir = args.cache_dir if args.cache_dir else f"{args.dir}/cache"
    return JobQueue(args.dir), ResultCache(cache_dir)


def _parse_preempt(specs: list[str]) -> dict[str, int]:
    """``JOB_ID@EVENTS`` flags -> {job_id: events}."""
    preempt: dict[str, int] = {}
    for text in specs or ():
        job_id, _, events = text.partition("@")
        if not job_id or not events.isdigit() or int(events) < 1:
            raise SystemExit(
                f"farm: bad --preempt {text!r} (want JOB_ID@EVENTS)"
            )
        preempt[job_id] = int(events)
    return preempt


def cmd_farm(args: argparse.Namespace) -> int:
    from repro.farm import (
        MatrixSpec,
        WorkerPool,
        farm_progress,
        farm_report,
        render_progress,
    )

    queue, cache = _farm_handles(args)
    if args.farm_command == "submit":
        matrix = MatrixSpec.from_file(args.matrix)
        before = len(queue)
        records = queue.submit_all(matrix.jobs())
        print(f"submitted {len(records) - before} new / {len(records)} total "
              f"jobs to {queue.directory} "
              f"({matrix.workload}, {len(matrix.sweep)} sweep axes)")
        for record in records[:args.show]:
            print(f"  {record.job_id}  {json.dumps(record.spec.params, sort_keys=True)}")
        if len(records) > args.show:
            print(f"  ... and {len(records) - args.show} more")
        return 0
    if args.farm_command == "run":
        if args.matrix:
            queue.submit_all(MatrixSpec.from_file(args.matrix).jobs())
        if not len(queue):
            print("farm run: queue is empty; submit a matrix first",
                  file=sys.stderr)
            return 2
        pool = WorkerPool(queue, cache, num_workers=args.workers,
                          checkpoint_every=args.checkpoint_every)
        report = pool.run(preempt=_parse_preempt(args.preempt))
        document = report.to_dict()
        if args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
        if args.json:
            print(json.dumps(document, sort_keys=True))
        else:
            print(report.render())
            print(f"  wall time         {pool.wall_s:.2f} s "
                  f"({document['total_jobs'] / pool.wall_s:.1f} jobs/s)")
            if args.report_out:
                print(f"wrote farm report to {args.report_out}")
        return 0 if document["counts"]["failed"] == 0 else 1
    if args.farm_command == "status":
        progress = farm_progress(queue, queue.directory / "work")
        if args.json:
            print(json.dumps(progress, sort_keys=True))
        else:
            print(render_progress(progress))
        return 0
    # report
    report = farm_report(queue, cache, queue.directory / "work")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    pareto_note = None
    if args.pareto_out:
        from repro.dse import front_json, pareto_from_farm_report

        front = pareto_from_farm_report(
            report.to_dict(), objectives=_parse_objectives(args.objective)
        )
        with open(args.pareto_out, "w", encoding="utf-8") as handle:
            handle.write(front_json(front))
        pareto_note = (
            f"wrote pareto front ({len(front['front'])}/{front['points']} "
            f"non-dominated) to {args.pareto_out}"
        )
    heat_note = None
    if args.heatmap_out:
        from repro.farm import farm_heatmap

        fleet = farm_heatmap(queue, cache)
        if fleet is None:
            heat_note = ("no netscope heat maps in this campaign "
                         "(submit jobs with \"netscope\": true)")
        else:
            with open(args.heatmap_out, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(fleet, sort_keys=True,
                                        separators=(",", ":")))
            heat_note = (f"wrote fleet heat map ({fleet['jobs']} job(s), "
                         f"{len(fleet['grids'])} grid(s)) to "
                         f"{args.heatmap_out}")
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
        if args.out:
            print(f"wrote farm report to {args.out}")
        if pareto_note:
            print(pareto_note)
        if heat_note:
            print(heat_note)
    return 0


def _parse_objectives(specs: list[str] | None):
    """``KEY:min|max`` flags -> objective dicts (None = spec defaults)."""
    if not specs:
        return None
    objectives = []
    for text in specs:
        key, sep, goal = text.partition(":")
        if not key or (sep and goal not in ("min", "max")):
            raise SystemExit(
                f"bad --objective {text!r} (want KEY or KEY:min / KEY:max)"
            )
        objectives.append({"key": key, "goal": goal or "min"})
    return objectives


def cmd_dse(args: argparse.Namespace) -> int:
    """Design-space exploration: sweep, fold, extract the front."""
    from repro import dse

    if args.dse_command == "submit":
        spec = dse.SweepSpec.from_file(args.sweep)
        records = dse.submit_sweep(spec, args.dir)
        print(f"submitted sweep {spec.sweep_id} "
              f"({len(records)} point(s), {len(spec.sweep)} axes, "
              f"objectives {', '.join(str(o) for o in spec.objectives)}) "
              f"to {args.dir}")
        return 0
    if args.dse_command == "run":
        spec = (
            dse.SweepSpec.from_file(args.sweep)
            if args.sweep else dse.load_spec(args.dir)
        )
        report, farm = dse.run_sweep(
            spec, args.dir, num_workers=args.workers,
            preempt=_parse_preempt(args.preempt),
            cache_dir=args.cache_dir,
            checkpoint_every=args.checkpoint_every,
        )
        if args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as handle:
                handle.write(dse.report_json(report))
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            from repro.dse.report import render

            print(render(report))
            payload = farm.to_dict()
            print(f"  farm: {payload['cache']['hits']} cache hit(s), "
                  f"{payload['preemptions']} preemption(s), "
                  f"{payload['counts']['failed']} failed")
            if args.report_out:
                print(f"wrote dse report to {args.report_out}")
        counts = farm.to_dict()["counts"]
        unfinished = counts["pending"] + counts["running"] + counts["preempted"]
        if unfinished:
            return EXIT_KILLED  # resumable: re-run the same directory
        return 0 if counts["failed"] == 0 else 1
    if args.dse_command == "report":
        report = dse.collect_report(None, args.dir, cache_dir=args.cache_dir)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dse.report_json(report))
        if args.timeline_out:
            front = dse.pareto_front(report)
            timeline = dse.sweep_timeline(report, front)
            with open(args.timeline_out, "w", encoding="utf-8") as handle:
                from repro.dse.exports import timeline_json

                handle.write(timeline_json(timeline))
        if args.heatmap_out:
            from repro.dse.engine import SweepDirs
            from repro.dse.exports import overlay_json
            from repro.farm import JobQueue, ResultCache

            dirs = SweepDirs(args.dir, args.cache_dir)
            overlay = dse.fleet_overlay(
                JobQueue(dirs.queue_dir), ResultCache(dirs.cache_dir),
                dse.pareto_front(report),
            )
            if overlay is None:
                print("no netscope heat maps in this sweep "
                      "(add \"netscope\": true to the base params)",
                      file=sys.stderr)
            else:
                with open(args.heatmap_out, "w", encoding="utf-8") as handle:
                    handle.write(overlay_json(overlay))
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            from repro.dse.report import render

            print(render(report))
        return 0
    # pareto
    report = dse.collect_report(None, args.dir, cache_dir=args.cache_dir)
    front = dse.pareto_front(
        report, objectives=_parse_objectives(args.objective)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dse.front_json(front))
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as handle:
            handle.write(dse.front_csv(front))
    if args.json:
        print(json.dumps(front, sort_keys=True))
    else:
        from repro.dse.pareto import render

        print(render(front))
        if args.scatter:
            print(dse.ascii_scatter(front))
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    """Run the scheduler/DVFS policy-zoo ablation and report it."""
    from repro.nos.ablation import (
        DEFAULT_KS,
        DEFAULT_POLICIES,
        render,
        report_json,
        run_ablation,
    )

    policies = (
        tuple(name.strip() for name in args.policies.split(","))
        if args.policies else DEFAULT_POLICIES
    )
    ks = (
        tuple(int(value) for value in args.ks.split(","))
        if args.ks else DEFAULT_KS
    )
    campaigns = tuple(
        {
            "seed": index,
            "kills": min(index, 4),
            "kill_from_us": 5.0,
            "kill_every_us": 6.0,
        }
        for index in range(1, args.campaigns + 1)
    )
    report = run_ablation(
        policies=policies,
        campaigns=campaigns,
        ks=ks,
        base={"tasks": args.tasks},
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report_json(report))
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render(report))
        if args.out:
            print(f"wrote policy-zoo report to {args.out}")
    return 0


def _positive_int(text: str) -> int:
    """Argparse type for values that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_dir_flags(sub: argparse.ArgumentParser, command: str) -> None:
    """The ``--dir``/``--cache-dir`` pair every farm and dse command takes.

    The cache directory defaults to ``<dir>/cache`` but is its own
    flag: a cache shared across directories is how repeated sweeps (and
    CI's second pass) hit instead of re-simulating.
    """
    noun, holds = {
        "farm": ("farm", "durable queue + work dirs"),
        "dse": ("sweep", "spec + queue + cache + work"),
    }[command]
    sub.add_argument("--dir", default=command, metavar="DIR",
                     help=f"{noun} directory ({holds})")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="content-addressed result cache "
                          f"(default: DIR/cache; share it across {noun} "
                          "directories to reuse results)")


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
    farm = subparsers.add_parser(
        "farm",
        help="campaign farm: queue simulation matrices, fan out across "
             "worker processes, cache results by config digest",
    )
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)

    farm_submit = farm_sub.add_parser(
        "submit", help="expand a matrix spec and enqueue its jobs"
    )
    _add_dir_flags(farm_submit, "farm")
    farm_submit.add_argument("--matrix", required=True, metavar="FILE",
                             help="matrix spec JSON "
                                  "(workload + base params + sweep axes)")
    farm_submit.add_argument("--show", type=int, default=8,
                             help="job rows to print")
    farm_run = farm_sub.add_parser(
        "run", help="drive every queued job to completion across workers"
    )
    _add_dir_flags(farm_run, "farm")
    farm_run.add_argument("--matrix", default=None, metavar="FILE",
                          help="also submit this matrix before running")
    farm_run.add_argument("--workers", type=_positive_int, default=2,
                          help="worker processes (default 2)")
    farm_run.add_argument("--checkpoint-every", type=_positive_int,
                          default=2000, metavar="N",
                          help="per-job checkpoint cadence (kernel events)")
    farm_run.add_argument("--preempt", action="append", default=None,
                          metavar="JOB_ID@EVENTS",
                          help="kill that job's next attempt after N fresh "
                               "events (exit 75); it resumes on another "
                               "worker — repeatable")
    farm_run.add_argument("--report-out", default=None, metavar="PATH",
                          help="write the farm report as canonical JSON")
    farm_run.add_argument("--json", action="store_true",
                          help="emit the farm report as JSON on stdout")
    farm_status = farm_sub.add_parser(
        "status", help="live campaign view (queue states + heartbeats)"
    )
    _add_dir_flags(farm_status, "farm")
    farm_status.add_argument("--json", action="store_true",
                             help="emit the progress view as JSON")
    farm_report_cmd = farm_sub.add_parser(
        "report", help="aggregate the campaign into a farm report"
    )
    _add_dir_flags(farm_report_cmd, "farm")
    farm_report_cmd.add_argument("--out", default=None, metavar="PATH",
                                 help="write the report as canonical JSON")
    farm_report_cmd.add_argument("--heatmap-out", default=None,
                                 metavar="PATH",
                                 help="merge the jobs' netscope heat maps "
                                      "into one fleet document (JSON)")
    farm_report_cmd.add_argument("--pareto-out", default=None, metavar="PATH",
                                 help="post-hoc Pareto analysis: write the "
                                      "campaign's non-dominated front as "
                                      "canonical JSON")
    farm_report_cmd.add_argument("--objective", action="append", default=None,
                                 metavar="KEY[:min|max]",
                                 help="objective axis for --pareto-out "
                                      "(repeatable; default GIPS/W/pJ-per-"
                                      "instruction)")
    farm_report_cmd.add_argument("--json", action="store_true",
                                 help="emit the report as JSON on stdout")
    farm.set_defaults(func=cmd_farm)
    dse = subparsers.add_parser(
        "dse",
        help="design-space exploration: declarative sweeps through the "
             "farm, Pareto-front extraction over configurable objectives",
    )
    dse_sub = dse.add_subparsers(dest="dse_command", required=True)

    dse_submit = dse_sub.add_parser(
        "submit", help="expand a sweep spec and enqueue its design points"
    )
    _add_dir_flags(dse_submit, "dse")
    dse_submit.add_argument("--sweep", required=True, metavar="FILE",
                            help="sweep spec JSON (workload + base + axes "
                                 "+ objectives)")
    dse_run = dse_sub.add_parser(
        "run",
        help="drive the sweep to completion and fold the dse report "
             f"(exit {EXIT_KILLED} if interrupted; re-run to resume)",
    )
    _add_dir_flags(dse_run, "dse")
    dse_run.add_argument("--sweep", default=None, metavar="FILE",
                         help="submit this sweep spec before running "
                              "(default: the directory's saved spec)")
    dse_run.add_argument("--workers", type=_positive_int, default=2,
                         help="worker processes (default 2)")
    dse_run.add_argument("--checkpoint-every", type=_positive_int,
                         default=None, metavar="N",
                         help="per-point checkpoint cadence (kernel events)")
    dse_run.add_argument("--preempt", action="append", default=None,
                         metavar="JOB_ID@EVENTS",
                         help="kill that point's next attempt after N fresh "
                              "events (exit 75); it resumes on another "
                              "worker — repeatable")
    dse_run.add_argument("--report-out", default=None, metavar="PATH",
                         help="write the dse-report/1 as canonical JSON")
    dse_run.add_argument("--json", action="store_true",
                         help="emit the dse report as JSON on stdout")
    dse_report = dse_sub.add_parser(
        "report", help="fold the sweep's cached results into dse-report/1"
    )
    _add_dir_flags(dse_report, "dse")
    dse_report.add_argument("--out", default=None, metavar="PATH",
                            help="write the report as canonical JSON")
    dse_report.add_argument("--timeline-out", default=None, metavar="PATH",
                            help="write a Chrome-trace sweep timeline "
                                 "(front/knee annotated)")
    dse_report.add_argument("--heatmap-out", default=None, metavar="PATH",
                            help="write the fleet heat-map overlay "
                                 "(netscope jobs only)")
    dse_report.add_argument("--json", action="store_true",
                            help="emit the report as JSON on stdout")
    dse_pareto = dse_sub.add_parser(
        "pareto", help="extract the non-dominated front from the sweep"
    )
    _add_dir_flags(dse_pareto, "dse")
    dse_pareto.add_argument("--objective", action="append", default=None,
                            metavar="KEY[:min|max]",
                            help="objective axis (repeatable; default: the "
                                 "sweep spec's objectives)")
    dse_pareto.add_argument("--out", default=None, metavar="PATH",
                            help="write the pareto-front/1 as canonical JSON")
    dse_pareto.add_argument("--csv-out", default=None, metavar="PATH",
                            help="write the front as CSV")
    dse_pareto.add_argument("--scatter", action="store_true",
                            help="print the ASCII Pareto scatter")
    dse_pareto.add_argument("--json", action="store_true",
                            help="emit the front as JSON on stdout")
    dse.set_defaults(func=cmd_dse)
    policies = subparsers.add_parser(
        "policies",
        help="run the scheduler/DVFS policy-zoo ablation "
             "(policies x fault campaigns x k)",
    )
    policies.add_argument("--policies", default=None, metavar="NAMES",
                          help="comma-separated zoo bundle names "
                               "(default: the whole zoo)")
    policies.add_argument("--ks", default=None, metavar="KS",
                          help="comma-separated backup depths "
                               "(default: 0,1,2)")
    policies.add_argument("--campaigns", type=_positive_int, default=3,
                          metavar="N",
                          help="seeded fault campaigns: campaign i kills "
                               "min(i, 4) cores (default 3)")
    policies.add_argument("--tasks", type=_positive_int, default=24,
                          help="real-time tasks per cell (default 24)")
    policies.add_argument("--out", default=None, metavar="PATH",
                          help="write the canonical JSON report here")
    policies.add_argument("--json", action="store_true",
                          help="emit the report as JSON on stdout")
    policies.set_defaults(func=cmd_policies)
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
