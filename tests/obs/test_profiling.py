"""Tests for simulation profiling (repro.obs.profiling + engine hooks)."""

import pytest

from repro.obs.profiling import SimProfile, callback_source
from repro.sim import Simulator


class TestCallbackSource:
    def test_bound_method(self):
        sim = Simulator()
        assert callback_source(sim.step) == "Simulator.step"

    def test_plain_function(self):
        def fire():
            pass

        name = callback_source(fire)
        assert name.endswith("fire") and "<locals>" not in name

    def test_lambda(self):
        assert "<locals>" not in callback_source(lambda: None)


class TestSimulatorProfile:
    def test_counts_events_by_source(self):
        sim = Simulator()

        def tick():
            pass

        for i in range(5):
            sim.schedule(i * 10, tick)
        with sim.profile() as profile:
            sim.run()
        assert profile.events_total == sim.events_processed
        by_source = profile.events_by_source
        assert sum(by_source.values()) == profile.events_total
        assert any("tick" in source for source in by_source)

    def test_queue_depth_high_water(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        with sim.profile() as profile:
            sim.schedule(50, lambda: None)
            sim.run()
        assert sim.queue_depth_high_water == 8
        assert profile.queue_depth_high_water == 8

    def test_wall_and_sim_time_recorded(self):
        sim = Simulator()
        sim.schedule(0, lambda: None)
        sim.schedule(1_000_000, lambda: None)
        with sim.profile() as profile:
            sim.run()
        assert profile.wall_time_s > 0
        assert profile.sim_time_ps == 1_000_000
        assert profile.sim_wall_ratio > 0
        assert profile.events_per_sec > 0

    def test_profiler_removed_after_block(self):
        sim = Simulator()
        with sim.profile():
            pass
        assert sim._profiler is None
        sim.schedule(0, lambda: None)
        sim.run()  # must not touch the sealed profile

    def test_profile_render_and_dict(self):
        sim = Simulator()
        sim.schedule(0, lambda: None)
        with sim.profile() as profile:
            sim.run()
        text = profile.render()
        assert "1 events" in text
        data = profile.to_dict()
        assert data["events_total"] == 1
        assert set(data) >= {
            "events_by_source", "queue_depth_high_water", "sim_time_ps",
            "wall_time_s", "sim_wall_ratio", "events_per_sec",
        }

    def test_empty_profile_ratios_are_zero(self):
        profile = SimProfile()
        assert profile.sim_wall_ratio == 0.0
        assert profile.events_per_sec == 0.0


class TestWallAttribution:
    def busy_sim(self, n=4_000):
        sim = Simulator()
        state = {"left": n}

        def spin():
            state["left"] -= 1
            if state["left"]:
                sim.schedule(sim.now + 100, spin)

        def other():
            pass

        sim.schedule(0, spin)
        for i in range(n // 4):
            sim.schedule(i * 400 + 50, other)
        return sim

    def test_attributed_wall_sums_to_total(self):
        """Per-source wall seconds (plus the <kernel> residual) must sum
        to the measured wall time — the 15% acceptance bound is met by
        construction, so pin the exact identity."""
        sim = self.busy_sim()
        with sim.profile(wall_sample_every=1) as profile:
            sim.run()
        assert profile.wall_by_source
        assert profile.wall_attributed_s == pytest.approx(
            profile.wall_time_s, rel=1e-9)
        assert abs(profile.wall_attributed_s - profile.wall_time_s) <= \
            0.15 * profile.wall_time_s

    def test_sampled_attribution_scales_up(self):
        sim = self.busy_sim()
        with sim.profile(wall_sample_every=8) as profile:
            sim.run()
        assert profile.wall_sample_every == 8
        assert profile.wall_sampled_events == profile.events_total // 8
        # Counts stay exact at any stride; only timing is sampled.
        assert sum(profile.events_by_source.values()) == profile.events_total
        assert profile.wall_attributed_s == pytest.approx(
            profile.wall_time_s, rel=1e-9)

    def test_kernel_residual_source_present(self):
        from repro.obs.profiling import KERNEL_SOURCE

        sim = self.busy_sim(500)
        with sim.profile() as profile:
            sim.run()
        assert KERNEL_SOURCE in profile.wall_by_source

    def test_run_in_chunks_matches_full_run_counts(self):
        """The RLE ledger must survive the step()/run() driver boundary:
        draining in max_events chunks (the heartbeat/resume path) yields
        the same exact counts as one uninterrupted run()."""
        full = self.busy_sim(1_000)
        with full.profile() as reference:
            full.run()

        chunked = self.busy_sim(1_000)
        with chunked.profile() as profile:
            while chunked.run(max_events=97):
                pass
        assert profile.events_by_source == reference.events_by_source
        assert profile.events_total == reference.events_total


class TestQueueAccounting:
    def test_pushes_and_cancel_churn(self):
        sim = Simulator()
        handles = [sim.schedule(i * 10, lambda: None) for i in range(10)]
        with sim.profile() as profile:
            inner = [sim.schedule(500 + i, lambda: None) for i in range(6)]
            for handle in inner[:3]:
                handle.cancel()
            sim.run()
        # Only schedules inside the window count as pushes.
        assert profile.queue_pushes == 6
        assert profile.queue_pops_cancelled == 3
        assert profile.cancel_churn == pytest.approx(0.5)
        assert len(handles) == 10  # pre-window events all ran

    def test_depth_timeline_sampled(self):
        sim = Simulator()
        state = {"left": 3_000}

        def tick():
            state["left"] -= 1
            if state["left"]:
                sim.schedule(sim.now + 1, tick)

        sim.schedule(0, tick)
        with sim.profile(depth_timeline_every=256) as profile:
            sim.run()
        assert profile.depth_timeline
        events_at, depth = profile.depth_timeline[0]
        assert events_at > 0 and depth >= 0


class TestProfileRendering:
    def profiled(self):
        sim = Simulator()

        def tick():
            pass

        for i in range(64):
            sim.schedule(i * 10, tick)
        with sim.profile() as profile:
            sim.run()
        return profile

    def test_folded_flame_format(self):
        folded = self.profiled().folded()
        lines = folded.splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack or stack  # flat stacks allowed
            int(count)  # sample weight must parse

    def test_render_mentions_queue_ops_and_sampling(self):
        text = self.profiled().render()
        assert "queue ops" in text
        assert "pushes" in text
        assert "wall sampled every" in text

    def test_to_dict_includes_observatory_fields(self):
        data = self.profiled().to_dict()
        assert set(data) >= {
            "wall_by_source", "wall_sample_every", "queue_pushes",
            "queue_pops_cancelled", "cancel_churn", "depth_timeline",
        }

    def test_profile_chrome_trace_export(self):
        from repro.obs.trace_export import profile_chrome_trace

        profile = self.profiled()
        assert profile.meta_samples
        doc = profile_chrome_trace(profile)
        slices = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
        assert len(slices) == len(profile.meta_samples)
        assert all(ev["dur"] >= 0 for ev in slices)


class TestSystemProfile:
    def test_system_profile_context(self):
        from repro import SwallowSystem, assemble

        system = SwallowSystem()
        system.spawn(system.core(0), assemble("""
            ldc r0, 20
        loop:
            subi r0, r0, 1
            bt r0, loop
            freet
        """))
        with system.profile() as profile:
            system.run()
        assert profile.events_total > 0
        assert "XCore._tick" in profile.events_by_source
