"""Property-based determinism tests of the event kernel.

Determinism is the simulator's load-bearing invariant (it stands in for
the hardware's time-deterministic execution): any schedule of events —
including ties, cancellations, and nested scheduling — must replay
identically.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Simulator

#: A scripted scheduling action: (delay, payload, cancel_index | None).
actions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=99),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    ),
    min_size=1,
    max_size=30,
)


def run_script(script):
    """Execute a scheduling script; return the observable trace."""
    sim = Simulator()
    log = []
    handles = []

    def make_event(payload, nested_delay):
        def fire():
            log.append((sim.now, payload))
            if nested_delay is not None and nested_delay % 3 == 0:
                sim.schedule(nested_delay * 10, lambda: log.append((sim.now, -payload)))
        return fire

    for delay, payload, cancel in script:
        handle = sim.schedule(delay, make_event(payload, cancel))
        handles.append(handle)
        if cancel is not None and cancel < len(handles):
            handles[cancel].cancel()
    sim.run()
    return tuple(log), sim.now, sim.events_processed


class TestKernelDeterminism:
    @given(actions)
    def test_replay_is_identical(self, script):
        assert run_script(script) == run_script(script)

    @given(actions)
    def test_time_is_monotone(self, script):
        log, _, _ = run_script(script)
        times = [t for t, _ in log]
        assert times == sorted(times)

    @given(actions)
    def test_ties_fire_in_schedule_order(self, script):
        """Among same-delay events, earlier scheduling fires first."""
        sim = Simulator()
        order = []
        for index, (delay, _, _) in enumerate(script):
            sim.schedule(500, lambda i=index: order.append(i))
        sim.run()
        assert order == sorted(order)


class TestObservabilityDeterminism:
    """Identical configs must yield byte-identical snapshots and exports."""

    @staticmethod
    def _run_demo(seed: int):
        from repro.checkpoint import build_workload

        system = build_workload("demo", {"seed": seed}).system
        recorder = system.trace()
        system.run()
        return system, recorder

    def test_metric_snapshots_byte_identical(self):
        first, _ = self._run_demo(seed=11)
        second, _ = self._run_demo(seed=11)
        a = first.metrics_snapshot().to_json()
        b = second.metrics_snapshot().to_json()
        assert a == b
        assert len(a) > 2  # not trivially empty

    def test_trace_exports_byte_identical(self):
        _, first = self._run_demo(seed=11)
        _, second = self._run_demo(seed=11)
        assert first.to_chrome_trace_json() == second.to_chrome_trace_json()
        assert first.to_jsonl() == second.to_jsonl()

    def test_different_seeds_diverge(self):
        first, _ = self._run_demo(seed=11)
        second, _ = self._run_demo(seed=12)
        assert (
            first.metrics_snapshot().to_json()
            != second.metrics_snapshot().to_json()
        )


class TestSystemDeterminism:
    def test_full_machine_digest_stable(self):
        """A loaded multi-slice machine replays to an identical trace."""
        from repro.board import build_machine
        from repro.sim import TraceRecorder
        from repro.xs1 import assemble

        def run_once():
            sim = Simulator()
            machine = build_machine(sim, slices_x=2)
            sim.tracer = TraceRecorder(kinds={"issue"})
            program = assemble("""
                ldc r0, 50
            loop:
                subi r0, r0, 1
                bt r0, loop
                freet
            """)
            for board in machine.slices:
                for core in board.cores[:4]:
                    core.spawn(program)
            sim.run()
            return sim.tracer.digest(), sim.now, sim.events_processed

        assert run_once() == run_once()
