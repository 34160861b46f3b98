"""Tests for energy-transparency reports."""

import pytest

from repro import SwallowSystem, assemble
from repro.core.transparency import CoreEnergyRow


class TestCoreEnergyRow:
    def test_nj_per_instruction(self):
        row = CoreEnergyRow(node_id=0, instructions=1000, energy_j=1e-6,
                            mean_power_mw=100.0)
        assert row.nj_per_instruction == pytest.approx(1.0)

    def test_zero_instructions(self):
        row = CoreEnergyRow(node_id=0, instructions=0, energy_j=1e-6,
                            mean_power_mw=100.0)
        assert row.nj_per_instruction == 0.0


class TestReport:
    def build(self):
        system = SwallowSystem()
        system.spawn(system.core(0), assemble("""
            ldc r0, 1000
        loop:
            subi r0, r0, 1
            bt r0, loop
            freet
        """))
        system.run()
        return system, system.energy_report()

    def test_totals_consistent(self):
        _, report = self.build()
        breakdown_total = (
            report.core_energy_j + report.link_energy_j + report.support_energy_j
        )
        assert report.total_energy_j == pytest.approx(breakdown_total)

    def test_mean_power_matches_ledger(self):
        system, report = self.build()
        assert report.mean_power_w == pytest.approx(
            system.accounting.mean_power_mw() / 1e3, rel=0.01
        )

    def test_instruction_counts(self):
        _, report = self.build()
        assert report.total_instructions == 2002

    def test_busy_core_has_higher_nj_than_nothing(self):
        _, report = self.build()
        busy = next(r for r in report.cores if r.instructions > 0)
        # With static power amortised over a 1-thread run, per-instruction
        # energy lands far above the dynamic-only cost.
        assert busy.nj_per_instruction > 0.5

    def test_render_truncates(self):
        _, report = self.build()
        text = report.render(top=2)
        assert "more cores" in text

    def test_render_contains_totals_line(self):
        _, report = self.build()
        assert "totals:" in report.render()

    def test_empty_report_power_zero(self):
        from repro.core.transparency import EnergyReport

        report = EnergyReport(elapsed_s=0.0)
        assert report.mean_power_w == 0.0
        assert report.total_energy_j == 0.0


class TestMultiSliceReport:
    def test_each_row_counts_its_own_core(self):
        """Rows read per-node sums over several energy classes."""
        from repro.xs1.behavioral import Compute
        from repro.xs1.isa import EnergyClass

        def multiply(count):
            yield Compute(count, EnergyClass.MUL)

        system = SwallowSystem(slices_x=2)
        for index, core in enumerate(system.cores):
            if index % 3:
                system.spawn(core, assemble(f"""
                    ldc r0, {index + 1}
                loop:
                    subi r0, r0, 1
                    bt r0, loop
                    freet
                """))
            if index % 4 == 0:
                system.spawn_task(core, multiply(index + 5))
        system.run()
        report = system.energy_report()
        assert [row.node_id for row in report.cores] == \
            [core.node_id for core in system.cores]
        for row, core in zip(report.cores, system.cores):
            assert row.instructions == core.stats.total_instructions
        assert any(len(core.stats.instructions) > 2 for core in system.cores)


class TestSerialisation:
    def test_to_dict_roundtrips_through_json(self):
        import json

        system = SwallowSystem()
        system.run_for_us(10)
        report = system.energy_report()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["total_energy_j"] == pytest.approx(report.total_energy_j)
        assert len(payload["cores"]) == 16
        assert payload["total_instructions"] == report.total_instructions


class TestThreadAttribution:
    def build(self):
        from repro import SwallowSystem, assemble

        system = SwallowSystem()
        long_loop = assemble("""
            ldc r0, 3000
        loop:
            subi r0, r0, 1
            bt r0, loop
            freet
        """)
        short_loop = assemble("""
            ldc r0, 1000
        loop:
            subi r0, r0, 1
            bt r0, loop
            freet
        """)
        busy = system.core(0)
        busy.spawn(long_loop, name="long")
        busy.spawn(short_loop, name="short")
        system.run()
        return system

    def test_energy_conserved(self):
        from repro.core import attribute_to_threads

        system = self.build()
        rows = attribute_to_threads(system)
        total = sum(row.energy_j for row in rows)
        ledger = sum(
            t.energy_j for t in system.accounting.trackers.values()
        )
        assert total == pytest.approx(ledger, rel=1e-9)

    def test_bigger_thread_gets_more(self):
        from repro.core import attribute_to_threads

        system = self.build()
        rows = {r.thread_name: r for r in attribute_to_threads(system)
                if r.node_id == system.core(0).node_id}
        assert rows["long"].energy_j > rows["short"].energy_j
        ratio = rows["long"].instructions / rows["short"].instructions
        assert rows["long"].energy_j / rows["short"].energy_j == pytest.approx(ratio)

    def test_idle_cores_attributed_to_idle(self):
        from repro.core import attribute_to_threads

        system = self.build()
        idle_rows = [r for r in attribute_to_threads(system)
                     if r.thread_name == "<idle>"]
        assert len(idle_rows) >= 15  # the other cores never ran anything
        assert all(r.energy_j > 0 for r in idle_rows)
