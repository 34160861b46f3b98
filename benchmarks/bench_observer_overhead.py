"""Observer overhead: what does watching the simulator cost?

The performance observatory is only trustworthy if observing the kernel
does not meaningfully slow the kernel down — otherwise every recorded
events/sec number would measure the probes, not the simulator.  This
bench runs the same seeded multi-core workload in two configurations:
*plain* (metrics registry off, no tracer, no profiler) and *observed*
(metrics registry on, machine-wide tracer attached, wall-time profiler
installed), and reports the throughput delta.

Runs execute interleaved (plain, observed, plain, ...) and the reported
overhead is the **ratio of each configuration's best run**: wall-clock
noise on shared or virtualised hosts is one-sided (a descheduled vCPU
only ever makes a run look slower) and routinely dwarfs the true delta,
so means and even medians systematically overstate whichever
configuration runs longer.  The fastest run of each side is the least
noise-contaminated estimate — the same reasoning behind ``timeit``'s
convention of taking the minimum.

The observed configuration must stay within the 10 % overhead budget;
the measured delta is printed and written to
``benchmarks/out/observer_overhead.txt``, which git ignores because it
holds host timings.
"""

import time

from repro import Compute, RecvWord, SendWord, assemble
from repro.core.platform import SwallowSystem

#: Spin-loop iterations per worker core (sets the bench's event volume).
#: Kept short enough that one run fits between virtualised-host
#: scheduler hiccups — a clean (noise-free) run must be *possible* for
#: best-of-N to find it.
LOOPS = 2000
#: Words streamed across the fabric while the workers spin.
WORDS = 24
#: Interleaved rounds to run; each configuration's best run is scored,
#: so a scheduler hiccup in one run cannot fake an overhead regression.
ROUNDS = 10
#: If the measured overhead is still over budget after ROUNDS, keep
#: adding rounds up to this cap.  Extra samples only ever move each
#: side's best toward its noise-free floor, so a config that is truly
#: over budget still fails — this de-noises, it cannot mask.
MAX_ROUNDS = 30
#: The budget the observed configuration must stay within.
OVERHEAD_BUDGET = 0.10
#: Wall-time sampling stride for the profiled run.  Event counts stay
#: exact at any stride; this only spaces out the perf_counter pairs.
WALL_SAMPLE_EVERY = 64


def _load(system: SwallowSystem) -> list[int]:
    """A fixed multi-core workload: four spinning cores + one stream."""
    for node in (0, 2, 4, 6):
        system.spawn(system.core(node), assemble(f"""
            ldc r0, {LOOPS}
        loop:
            subi r0, r0, 1
            bt r0, loop
            freet
        """))
    channel = system.channel(system.core(1), system.core(10))
    received: list[int] = []

    def producer():
        for i in range(WORDS):
            yield Compute(80)
            yield SendWord(channel.a, i * 5 + 3)

    def consumer():
        for _ in range(WORDS):
            received.append((yield RecvWord(channel.b)))

    system.spawn_task(system.core(1), producer())
    system.spawn_task(system.core(10), consumer())
    return received


def _run_once(observed: bool) -> tuple[int, float]:
    """One run; returns (events executed, wall seconds)."""
    if observed:
        system = SwallowSystem()
        system.trace(capacity=65536)
        _load(system)
        wall_start = time.perf_counter()
        with system.sim.profile(wall_sample_every=WALL_SAMPLE_EVERY):
            system.run()
        wall_s = time.perf_counter() - wall_start
    else:
        system = SwallowSystem(metrics=False)
        _load(system)
        wall_start = time.perf_counter()
        system.run()
        wall_s = time.perf_counter() - wall_start
    return system.sim.events_processed, wall_s


def _measure() -> tuple[int, int, float, float, float]:
    """Interleaved throughput measurement.

    Returns (plain events, observed events, best plain events/sec, best
    observed events/sec, best-vs-best overhead).
    """
    best: dict[bool, float] = {}
    events: dict[bool, int] = {}
    rounds = 0
    while rounds < MAX_ROUNDS:
        rounds += 1
        for observed in (False, True):
            ev, wall_s = _run_once(observed)
            events[observed] = ev
            if observed not in best or wall_s < best[observed]:
                best[observed] = wall_s
        if rounds >= ROUNDS and best[True] / best[False] - 1.0 < OVERHEAD_BUDGET:
            break
    return (events[False], events[True],
            events[False] / best[False], events[True] / best[True],
            best[True] / best[False] - 1.0)


def test_observer_overhead(report_table):
    events_plain, events_observed, plain_eps, observed_eps, overhead = (
        _measure()
    )
    assert events_plain == events_observed, (
        "observation changed the event trajectory — probes must be "
        "pure observers"
    )
    report_table(
        "observer_overhead",
        "Observer overhead: probes + tracer + profiler on vs off",
        ["configuration", "events", "best events/sec", "overhead"],
        [
            ["plain (metrics off)", events_plain, round(plain_eps), "-"],
            ["observed (metrics+tracer+profiler)", events_observed,
             round(observed_eps), f"{overhead:.1%}"],
        ],
        notes=(
            f"best of {ROUNDS}-{MAX_ROUNDS} interleaved rounds per "
            f"configuration (extended adaptively while over budget); "
            f"budget {OVERHEAD_BUDGET:.0%}. A profiled or traced run "
            "measures the simulator, not its probes, only while this "
            "overhead stays small."
        ),
    )
    print(f"observer overhead: {overhead:.2%} "
          f"(best {plain_eps:,.0f} -> {observed_eps:,.0f} ev/s)")
    assert overhead < OVERHEAD_BUDGET, (
        f"observer overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )
