"""Tests for machine assembly."""

import pytest

from repro.board import build_machine, build_stack
from repro.sim import Simulator, us


class TestSingleSlice:
    def test_sixteen_cores(self):
        machine = build_machine(Simulator())
        assert len(machine.cores) == 16

    def test_eight_chips(self):
        machine = build_machine(Simulator())
        assert len(machine.slices[0].chips) == 8

    def test_one_measurement_board_per_slice(self):
        machine = build_machine(Simulator(), slices_x=2)
        assert len(machine.slices) == 2
        assert all(board.measurement is not None for board in machine.slices)
        assert machine.slices[0].measurement is not machine.slices[1].measurement

    def test_cores_attached_to_network_nodes(self):
        machine = build_machine(Simulator())
        node_ids = {core.node_id for core in machine.cores}
        assert node_ids == set(machine.topology.node_ids())

    def test_core_at_node_lookup(self):
        machine = build_machine(Simulator())
        assert machine.core_at_node(5).node_id == 5
        with pytest.raises(KeyError):
            machine.core_at_node(999)

    def test_cores_made_once_in_slice_major_order(self):
        """The core list is built once, slice by slice and chip by chip,
        and ``core_at_node`` finds each core by its node."""
        machine = build_machine(Simulator(), slices_x=2, slices_y=2)
        assert machine.cores is machine.cores
        assert machine.cores == [core for board in machine.slices
                                 for chip in board.chips for core in chip.cores]
        for core in machine.cores:
            assert machine.core_at_node(core.node_id) is core

    def test_slice_board_lookup(self):
        machine = build_machine(Simulator(), slices_x=2, slices_y=2)
        assert machine.slice_board(1, 1).sx == 1
        with pytest.raises(KeyError):
            machine.slice_board(5, 5)


class TestStack:
    def test_fig1_stack_is_128_cores(self):
        """Fig. 1: an eight board, 128 core stack."""
        machine = build_stack(Simulator(), boards=8)
        assert len(machine.cores) == 128
        assert machine.topology.slices_y == 8

    def test_accounting_spans_machine(self):
        sim = Simulator()
        machine = build_stack(sim, boards=2)
        sim.run_for(us(10))
        assert len(machine.accounting.trackers) == 32
        assert machine.accounting.total_energy_j() > 0

    def test_measurement_board_reads_idle_power(self):
        sim = Simulator()
        machine = build_machine(sim)
        sim.run_for(us(50))
        reading = machine.slices[0].measurement.sample_channel(0)
        assert reading > 0
