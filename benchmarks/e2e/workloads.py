"""The end-to-end workloads: each builds a system from a seed and checks it.

A workload function returns a :class:`Workload`: the built (not yet run) system
plus a ``verify`` function that, after ``system.run()``, counts the
workload's ops and failed ops and returns the outputs that go into the
model digest.  Workload functions take their sizes as keyword arguments; the
defaults are the benchmark's sizes, and the smoke tests pass tiny ones.

Every workload keeps the *amount* of work independent of the seed: the
seed permutes a fixed multiset of per-core sizes and draws the data, so
host time moves with the simulator, not with the inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from repro import SwallowSystem, assemble
from repro.apps import kernels
from repro.network.token import CT_END
from repro.network.topology import CORES_PER_SLICE
from repro.xs1.behavioral import (
    BehavioralThread,
    CheckCt,
    Compute,
    RecvWord,
    SendCt,
    SendWord,
)


@dataclass
class Verdict:
    """What one run of a workload produced."""

    ops: int
    failed: int
    #: Workload outputs (delivered payloads, deadline verdicts, ...),
    #: JSON-able, folded into the model digest.
    outputs: object


@dataclass
class Workload:
    """A built workload, ready for ``system.run()``."""

    system: SwallowSystem
    verify: Callable[[], Verdict]
    #: Runtime layers above the platform, when the workload has them.
    nos: object | None = None
    campaign: object | None = None


# ---------------------------------------------------------------------------
# isa_dense_480: four ISA threads per core, no bubbles, no traffic
# ---------------------------------------------------------------------------

DENSE_LOOP = """
    ldc r0, {iters}
loop:
    subi r0, r0, 1
    bt r0, loop
    freet
"""

#: ISA threads per core: Eq. 2's rate of one instruction per cycle
#: needs four.
THREADS = 4
#: Allowed deviation of a core's measured rate from Eq. 2.
EQ2_TOLERANCE = 0.005


def isa_dense(seed: int, slices: tuple[int, int] = (6, 5),
              base_iters: int = 20, step_iters: int = 2) -> Workload:
    """Every core runs :data:`THREADS` copies of a ``subi``/``bt`` loop.

    Loop lengths ``base_iters + k * step_iters`` (k = 0..15) are dealt
    to the cores in seeded order; all threads of one core share a
    length, so a core issues every cycle until all of them halt.
    """
    rng = random.Random(seed)
    system = SwallowSystem(slices_x=slices[0], slices_y=slices[1])
    cores = system.cores
    lengths = [base_iters + (rank % 16) * step_iters for rank in range(len(cores))]
    rng.shuffle(lengths)
    programs: dict[int, object] = {}
    halted_at: dict[int, int] = {}
    spawned = []
    for core, iters in zip(cores, lengths):
        if iters not in programs:
            programs[iters] = assemble(DENSE_LOOP.format(iters=iters),
                                       name=f"loop[{iters}]")
        core.on_halt_callbacks.append(
            lambda _thread, node=core.node_id: halted_at.__setitem__(
                node, system.sim.now)
        )
        spawned.append([core.spawn(programs[iters]) for _ in range(THREADS)])

    def verify() -> Verdict:
        failed = 0
        outputs = []
        for core, iters, core_threads in zip(cores, lengths, spawned):
            end_ps = halted_at.get(core.node_id, 0)
            mips = (core.stats.total_instructions * 1e6 / end_ps) if end_ps else 0.0
            rate_ok = abs(mips / core.frequency.megahertz - 1) <= EQ2_TOLERANCE
            for thread in core_threads:
                if not (rate_ok and thread.halted
                        and thread.instructions_executed == 2 * iters + 2):
                    failed += 1
            outputs.append([iters, end_ps])
        return Verdict(ops=len(cores) * THREADS, failed=failed, outputs=outputs)

    return Workload(system, verify)


# ---------------------------------------------------------------------------
# isa_sparse_480: one ISA kernel thread per core (3 of 4 ticks are bubbles)
# ---------------------------------------------------------------------------

#: Kernel factories and the sizes dealt to cores.  matmul[3] is the
#: longest kernel whatever the data, so simulated time is seed-free.
SPARSE_KERNELS: dict[str, tuple[Callable[[int], kernels.Kernel], list[int]]] = {
    "memcpy": (kernels.memcpy_words, [8, 10, 12]),
    "dot": (kernels.dot_product, [6, 8, 10]),
    "scale": (lambda n: kernels.vector_scale(n, 7), [8, 10, 12]),
    "checksum": (kernels.checksum32, [6, 8, 10]),
    "sort": (kernels.bubble_sort, [5, 6, 8]),
    "matmul": (kernels.matrix_multiply, [2, 3]),
    "fibonacci": (kernels.fibonacci, [8, 10, 12]),
}


def _kernel_inputs(rng: random.Random, name: str, size: int):
    words = size * size if name == "matmul" else size
    a = [] if name == "fibonacci" else [rng.getrandbits(32) for _ in range(words)]
    b = [rng.getrandbits(32) for _ in range(words)] if name in ("dot", "matmul") else None
    return a, b


def isa_sparse(seed: int, slices: tuple[int, int] = (6, 5)) -> Workload:
    """Every core runs one kernel from :mod:`repro.apps.kernels`.

    The (kernel, size) pairs form a fixed multiset dealt to the cores in
    seeded order; input words are seeded.  Each core's expected output
    comes from the kernel's pure-Python reference, computed at build
    time from the inputs just loaded.
    """
    rng = random.Random(seed)
    system = SwallowSystem(slices_x=slices[0], slices_y=slices[1])
    cores = system.cores
    names = list(SPARSE_KERNELS)
    deal = []
    for rank in range(len(cores)):
        name = names[rank % len(names)]
        sizes = SPARSE_KERNELS[name][1]
        deal.append((name, sizes[(rank // len(names)) % len(sizes)]))
    rng.shuffle(deal)
    built: dict[tuple[str, int], kernels.Kernel] = {}
    loaded = []
    for core, (name, size) in zip(cores, deal):
        kernel = built.get((name, size))
        if kernel is None:
            kernel = built[(name, size)] = SPARSE_KERNELS[name][0](size)
        kernel.load_inputs(core, *_kernel_inputs(rng, name, size))
        loaded.append((core, kernel, kernel.reference(core.memory)))
        core.spawn(kernel.program)

    def verify() -> Verdict:
        failed = 0
        outputs = []
        for core, kernel, expected in loaded:
            got = kernel.read_output(core)
            if got != expected or not core.all_halted:
                failed += 1
            outputs.append([kernel.name, got])
        return Verdict(ops=len(loaded), failed=failed, outputs=outputs)

    return Workload(system, verify)


# ---------------------------------------------------------------------------
# noc_shift_480: every core streams packets to the same core one slice on
# ---------------------------------------------------------------------------


def noc_shift(seed: int, slices: tuple[int, int] = (6, 5), packets: int = 2,
              words: int = 2, pattern: str = "shift") -> Workload:
    """Core i sends ``packets`` packets of ``words`` seeded words + END.

    ``pattern="shift"`` sends to core (i + 16) mod n, the same position
    on the next slice; ``"permutation"`` sends along a seeded random
    permutation (it can wedge, so only the smoke tests use it).  A
    compute gap of 10-73 instructions precedes each packet; the gaps are
    a fixed multiset dealt in seeded order.  A run that wedges returns
    with receivers blocked; their missing words fail.
    """
    if pattern not in ("shift", "permutation"):
        raise ValueError(f"unknown traffic pattern {pattern!r}")
    rng = random.Random(seed)
    system = SwallowSystem(slices_x=slices[0], slices_y=slices[1])
    cores = system.cores
    count = len(cores)
    if pattern == "shift":
        dest = [(i + CORES_PER_SLICE) % count for i in range(count)]
    else:
        dest = list(range(count))
        rng.shuffle(dest)
    gaps = [10 + k % 64 for k in range(count * packets)]
    rng.shuffle(gaps)
    rx = [core.allocate_chanend() for core in cores]
    received: list[list[int]] = [[] for _ in cores]
    expected: list[list[int]] = [[] for _ in cores]

    def sender(tx, gaps, payload):
        for gap, packet in zip(gaps, payload):
            yield Compute(gap)
            for word in packet:
                yield SendWord(tx, word)
            yield SendCt(tx, CT_END)

    def receiver(chanend, sink):
        for _ in range(packets):
            for _ in range(words):
                sink.append((yield RecvWord(chanend)))
            yield CheckCt(chanend, CT_END)

    for i, core in enumerate(cores):
        tx = core.allocate_chanend()
        tx.set_dest(rx[dest[i]].address)
        payload = [[rng.getrandbits(32) for _ in range(words)] for _ in range(packets)]
        expected[dest[i]] = [word for packet in payload for word in packet]
        BehavioralThread(core, sender(tx, gaps[i * packets:(i + 1) * packets], payload),
                         name=f"tx{i}")
        BehavioralThread(core, receiver(rx[i], received[i]), name=f"rx{i}")

    def verify() -> Verdict:
        failed = 0
        for got, want in zip(received, expected):
            failed += sum(1 for j, word in enumerate(want)
                          if j >= len(got) or got[j] != word)
        return Verdict(ops=count * packets * words, failed=failed,
                       outputs=received)

    return Workload(system, verify)


# ---------------------------------------------------------------------------
# rt_dvfs_64: the registered policy_rt workload under LA-EDF and a core kill
# ---------------------------------------------------------------------------

#: The task set is fixed; the seed picks the killed core and seeds the
#: campaign.  Drawing the task set from the seed too would move the
#: simulated span by +-25% between seeds.
RT_TASKSET_SEED = 1234


def rt_dvfs(seed: int, slices: tuple[int, int] = (2, 2), tasks: int = 12) -> Workload:
    """``policy_rt`` with ``policy=laedf, k=1, kills=1, spans=true``."""
    from repro.checkpoint.workloads import build_workload

    context = build_workload("policy_rt", {
        "slices_x": slices[0],
        "slices_y": slices[1],
        "tasks": tasks,
        "policy": "laedf",
        "k": 1,
        "kills": 1,
        "spans": True,
        "seed": seed,
        "taskset_seed": RT_TASKSET_SEED,
    })
    nos = context.nos

    def verify() -> Verdict:
        verdicts = [nos.deadline_status(task) for task in nos.tasks]
        outputs = {
            "verdicts": verdicts,
            "finish_ps": [task.finish_time_ps for task in nos.tasks],
            "spans": context.system.span_recorder.digest(),
            "faults": context.campaign.report().to_dict(),
            "replacements": nos.replacements,
            "dvfs_steps": nos.dvfs.steps if nos.dvfs is not None else 0,
        }
        failed = sum(1 for verdict in verdicts if verdict != "hit")
        return Verdict(ops=len(nos.tasks), failed=failed, outputs=outputs)

    return Workload(context.system, verify, nos=nos, campaign=context.campaign)


#: name -> workload function; the benchmark's workloads, in ``--all`` order.
WORKLOADS: dict[str, Callable[..., Workload]] = {
    "isa_dense_480": isa_dense,
    "isa_sparse_480": isa_sparse,
    "noc_shift_480": noc_shift,
    "rt_dvfs_64": rt_dvfs,
}


# ---------------------------------------------------------------------------
# Model digest
# ---------------------------------------------------------------------------


def model_digest(system: SwallowSystem, outputs: object) -> str:
    """SHA-256 over simulated statistics only.

    Covers per-core instruction histograms and issue slots, per-link-
    class traffic, per-switch routes opened and tokens delivered, each
    board's ADC sample count, final simulated time, the energy ledger
    (9 significant digits) and the workload's outputs (for
    ``rt_dvfs_64`` these hold the NanoOS replacements and DVFS steps and
    the fault report, which lists every injection).  Event counts, the
    queue sequence number and its high-water mark are left out, so a
    change that removes events without changing the model keeps its
    digest.  Closes the energy windows, so call it after the run.
    """
    accounting = system.accounting
    breakdown = accounting.breakdown_j()
    cores = sorted(system.cores, key=lambda core: core.node_id)
    switches = system.topology.fabric.switches
    doc = {
        "now_ps": system.sim.now,
        "cores": [
            [
                core.node_id,
                {cls.value: n for cls, n in core.stats.instructions.items()},
                core.stats.slots_issued,
                core.stats.slots_bubble,
            ]
            for core in cores
        ],
        "links": {
            name: [stats["tokens"], stats["bits"], stats["busy_time_ps"]]
            for name, stats in system.topology.fabric.link_stats_by_class().items()
        },
        "switches": [
            [node_id, switches[node_id].routes_opened, switches[node_id].tokens_delivered]
            for node_id in sorted(switches)
        ],
        "adc_samples": [board.measurement.samples_taken for board in system.machine.slices],
        "energy_j": {name: f"{value:.9g}" for name, value in breakdown.items()},
        "core_energy_j": [
            f"{accounting.trackers[core.node_id].energy_j:.9g}" for core in cores
        ],
        "outputs": outputs,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
