"""Pipeline-scheduler tests: Eq. 2 of the paper must emerge from mechanism.

    IPS_thread = f / max(4, N_threads)
    IPS_core   = f * min(4, N_threads) / 4
"""

import pytest

from repro.sim import Frequency, Simulator
from repro.xs1 import LoopbackFabric, ResourceError, XCore, assemble

LOOP = """
    ldc r0, {count}
loop:
    subi r0, r0, 1
    bt r0, loop
    freet
"""


def spawn_spinners(core, n_threads, iterations=500):
    program = assemble(LOOP.format(count=iterations))
    return [core.spawn(program, name=f"spin{i}") for i in range(n_threads)]


@pytest.mark.parametrize("n_threads,expected_share", [
    (1, 4),   # one issue per 4 cycles
    (2, 4),
    (3, 4),
    (4, 4),
    (5, 5),   # one issue per 5 cycles
    (6, 6),
    (8, 8),
])
def test_per_thread_issue_rate_matches_eq2(n_threads, expected_share):
    sim = Simulator()
    core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
    iterations = 300
    threads = spawn_spinners(core, n_threads, iterations)
    sim.run()
    instructions_each = 2 * iterations + 2  # ldc + (subi+bt)*n + freet
    # The last thread to finish bounds the total: its issue rate is
    # f/expected_share while all threads run.  All threads execute the same
    # count, so total cycles ~= instructions_each * expected_share.
    cycles = core.cycle
    expected_cycles = instructions_each * expected_share
    assert cycles == pytest.approx(expected_cycles, rel=0.02), (
        f"{n_threads} threads took {cycles} cycles, expected ~{expected_cycles}"
    )
    assert all(t.instructions_executed == instructions_each for t in threads)


def test_core_throughput_saturates_at_four_threads():
    """IPS_core = f*min(4,Nt)/4: 4 and 6 threads give the same aggregate rate."""
    def total_rate(n_threads):
        sim = Simulator()
        core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
        spawn_spinners(core, n_threads, iterations=250)
        sim.run()
        return core.stats.total_instructions / core.cycle

    assert total_rate(1) == pytest.approx(0.25, rel=0.02)
    assert total_rate(2) == pytest.approx(0.50, rel=0.02)
    assert total_rate(4) == pytest.approx(1.00, rel=0.02)
    assert total_rate(6) == pytest.approx(1.00, rel=0.02)
    assert total_rate(8) == pytest.approx(1.00, rel=0.02)


def test_thread_limit_enforced():
    sim = Simulator()
    core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
    spawn_spinners(core, 8, iterations=1)
    with pytest.raises(ResourceError, match="hardware threads"):
        core.spawn(assemble("freet"))


def test_halted_thread_slot_reusable():
    sim = Simulator()
    core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
    spawn_spinners(core, 8, iterations=1)
    sim.run()
    assert core.all_halted
    core.spawn(assemble("freet"))  # must not raise
    sim.run()
    assert core.all_halted


def test_frequency_scaling_slows_wall_clock():
    def runtime(mhz):
        sim = Simulator()
        core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
        core.set_frequency(Frequency.mhz(mhz))
        spawn_spinners(core, 1, iterations=100)
        sim.run()
        return sim.now

    assert runtime(250) == pytest.approx(2 * runtime(500), rel=0.01)
    assert runtime(125) == pytest.approx(4 * runtime(500), rel=0.01)


def test_mid_run_frequency_change_preserves_cycle_count():
    sim = Simulator()
    core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
    spawn_spinners(core, 1, iterations=1000)
    sim.run_until(core.frequency.cycles_to_ps(400))
    cycles_before = core.cycle
    core.set_frequency(Frequency.mhz(100))
    assert core.cycle == cycles_before
    sim.run()
    assert core.all_halted


def test_bubble_slots_counted_for_single_thread():
    sim = Simulator()
    core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
    spawn_spinners(core, 1, iterations=100)
    sim.run()
    # One thread: the 3 slots after each issue but the last are bubbles.
    assert core.stats.slots_issued == 202
    assert core.stats.slots_bubble == 3 * (core.stats.slots_issued - 1)


def test_four_threads_have_no_bubbles():
    sim = Simulator()
    core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
    spawn_spinners(core, 4, iterations=100)
    sim.run()
    assert core.stats.slots_bubble <= 4  # only edge effects at start/end
