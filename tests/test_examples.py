"""Smoke tests: every example must run to completion and produce its
advertised output."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "dot product on core 0: 120" in out
        assert "[0, 1, 4, 9]" in out
        assert "Energy report" in out

    def test_placement_ladder(self, capsys):
        out = run_example("placement_ladder", capsys)
        for placement in ("same-core", "same-package", "same-slice", "cross-slice"):
            assert placement in out

    def test_energy_aware_pipeline(self, capsys):
        out = run_example("energy_aware_pipeline", capsys)
        assert "watchpoint fired" in out
        assert "stepping cores 0-3 down to 250 MHz" in out
        assert "cross-core flow arrows" in out
        assert "byte-identical: True" in out

    def test_self_measuring_governor(self, capsys):
        out = run_example("self_measuring_governor", capsys)
        assert "over budget" in out
        assert "adjustments" in out

    def test_dvfs_exploration(self, capsys):
        out = run_example("dvfs_exploration", capsys)
        assert "P = (46.0 + 0.300 f) mW" in out

    def test_ethernet_boot_and_stream(self, capsys):
        out = run_example("ethernet_boot_and_stream", capsys)
        assert "host received 12 result words" in out

    def test_network_characterization(self, capsys):
        out = run_example("network_characterization", capsys)
        assert "bit-complement" in out
        assert "E/C =   512" in out

    def test_event_driven_server(self, capsys):
        out = run_example("event_driven_server", capsys)
        assert "server handled 8 requests" in out
        assert "sum 10 (expect 10)" in out

    def test_resumable_campaign(self, capsys):
        out = run_example("resumable_campaign", capsys)
        assert "byte-identical to uninterrupted run: True" in out
        assert "rollback #1" in out
        assert "24/24 words delivered, intact" in out

    def test_dse_pareto(self, capsys):
        out = run_example("dse_pareto", capsys)
        assert "6 design points" in out
        assert "pareto front: 6/6 points non-dominated" in out
        assert "* front   K knee   . dominated" in out
        assert "pareto front: 3/6 points non-dominated" in out
        assert "dominated by" in out
        assert "(100% hit rate)" in out
        assert "report byte-identical: True" in out
        assert "front byte-identical: True" in out

    def test_fault_tolerant_pipeline(self, capsys):
        out = run_example("fault_tolerant_pipeline", capsys)
        assert "fault campaign (seed 42)" in out
        assert "24/24 words delivered, intact" in out
        assert "map job:  done, results correct" in out
