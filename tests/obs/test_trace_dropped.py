"""Trace-recorder overflow must surface in the sim profile."""

from repro import Compute, SwallowSystem


def run_busy_traced(capacity):
    system = SwallowSystem(slices_x=1)
    recorder = system.trace(capacity=capacity)

    def body():
        yield Compute(500)

    system.spawn_task(system.core(0), body())
    return system, recorder


class TestDroppedEvents:
    def test_profile_surfaces_drops(self):
        system, recorder = run_busy_traced(capacity=1)
        with system.sim.profile() as profile:
            system.run()
        assert profile.trace_dropped_events == recorder.dropped > 0
        assert f"TRACE DROPPED {recorder.dropped}" in profile.render()
        assert profile.to_dict()["trace_dropped_events"] == recorder.dropped

    def test_unbounded_recorder_drops_nothing(self):
        system, recorder = run_busy_traced(capacity=None)
        with system.sim.profile() as profile:
            system.run()
        assert recorder.dropped == 0
        assert profile.trace_dropped_events == 0
        assert "TRACE DROPPED" not in profile.render()
