"""Tests for campaign scheduling, determinism, reporting, and the CLI."""

import json

import pytest

from repro import NanoOS, ReliableChannel, SwallowSystem
from repro.__main__ import main
from repro.faults import (
    BitFlip,
    CoreKill,
    FaultCampaign,
    FlakyLink,
    LinkKill,
    NodeKill,
)
from repro.network.routing import Layer

from tests.faults.test_reliable import adjacent_pair, stream


def run_campaign(seed):
    """A mixed campaign over a reliable stream plus a NanoOS map job."""
    system = SwallowSystem()
    core_a, core_b = adjacent_pair(system)
    nos = NanoOS(system)
    job = nos.map(lambda x: x + 1, list(range(8)), cost_per_item=10_000)
    channel = ReliableChannel.between(core_a, core_b)
    received = stream(system, channel, words=10)
    campaign = FaultCampaign(
        system,
        [
            FlakyLink(at_us=0.0, node_a=core_a.node_id, node_b=core_b.node_id,
                      drop_rate=0.08, corrupt_rate=0.02),
            BitFlip(at_us=2.0, node_a=core_a.node_id, node_b=core_b.node_id),
            CoreKill(at_us=5.0, node_id=nos.tasks[5].core.node_id),
        ],
        seed=seed,
        nos=nos,
    )
    campaign.register_channel("stream", channel)
    campaign.register_metrics(system.metrics)
    campaign.arm()
    system.run()
    assert received == [i * 3 + 1 for i in range(10)]
    assert job.done
    return campaign.report(), system.metrics_snapshot()


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        """The acceptance bar: same seed, same workload => byte-identical
        campaign report and metrics snapshot."""
        report_1, metrics_1 = run_campaign(seed=123)
        report_2, metrics_2 = run_campaign(seed=123)
        assert report_1.to_json() == report_2.to_json()
        assert metrics_1.to_json() == metrics_2.to_json()

    def test_different_seed_differs(self):
        report_1, _ = run_campaign(seed=123)
        report_2, _ = run_campaign(seed=124)
        assert report_1.to_json() != report_2.to_json()


class TestCampaignMechanics:
    def test_arm_twice_raises(self):
        system = SwallowSystem(metrics=False)
        campaign = FaultCampaign(system, [], seed=0)
        campaign.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            campaign.arm()

    def test_duplicate_channel_name_raises(self):
        system = SwallowSystem(metrics=False)
        campaign = FaultCampaign(system, [], seed=0)
        channel = ReliableChannel.between(system.core(0), system.core(1))
        campaign.register_channel("c", channel)
        with pytest.raises(ValueError, match="already registered"):
            campaign.register_channel("c", channel)

    def test_flaky_until_us_uninstalls_hook(self):
        system = SwallowSystem(metrics=False)
        topo = system.topology
        node_a = topo.node_at(0, 0, Layer.VERTICAL)
        node_b = topo.node_at(0, 1, Layer.VERTICAL)
        campaign = FaultCampaign(
            system,
            [FlakyLink(at_us=1.0, node_a=node_a, node_b=node_b,
                       drop_rate=0.5, until_us=2.0)],
            seed=0,
        )
        campaign.arm()
        record = topo.fabric.find_link(node_a, node_b)
        system.run_for_us(1.5)
        assert record.forward.fault_hook is not None
        system.run_for_us(1.0)
        assert record.forward.fault_hook is None
        assert record.backward.fault_hook is None

    def test_flaky_rates_validated(self):
        with pytest.raises(ValueError, match="lie in"):
            FlakyLink(at_us=0.0, node_a=0, node_b=1,
                      drop_rate=0.8, corrupt_rate=0.4)
        with pytest.raises(ValueError, match="after"):
            FlakyLink(at_us=2.0, node_a=0, node_b=1,
                      drop_rate=0.1, until_us=1.0)

    def test_events_record_injection_times(self):
        report, _ = run_campaign(seed=5)
        events = report.to_dict()["events"]
        assert [e["kind"] for e in events] == [
            "flaky_link", "bit_flip", "core_kill",
        ]
        assert events[1]["time_ps"] == 2_000_000
        assert events[2]["replaced"] >= 0

    def test_metrics_series_present(self):
        _, snapshot = run_campaign(seed=9)
        assert snapshot.value("faults.injected") == 3
        assert snapshot.value("faults.tokens_dropped") > 0
        assert snapshot.value("faults.failed_cores") == 1
        assert snapshot.value("faults.replacements") >= 0
        assert snapshot.value("faults.channel_delivered", channel="stream") == 10


class TestFromSpec:
    def test_round_trip(self):
        system = SwallowSystem(metrics=False)
        spec = {
            "seed": 7,
            "faults": [
                {"kind": "flaky_link", "at_us": 0.0, "node_a": 0,
                 "node_b": 8, "drop_rate": 0.1},
                {"kind": "link_kill", "at_us": 5.0, "node_a": 0, "node_b": 8},
                {"kind": "node_kill", "at_us": 9.0, "node_id": 1},
                {"kind": "core_kill", "at_us": 10.0, "node_id": 2},
                {"kind": "bit_flip", "at_us": 1.0, "node_a": 0, "node_b": 8},
            ],
        }
        campaign = FaultCampaign.from_spec(system, spec)
        assert campaign.seed == 7
        kinds = [type(f) for f in campaign.faults]
        assert kinds == [FlakyLink, LinkKill, NodeKill, CoreKill, BitFlip]

    def test_unknown_kind_rejected(self):
        system = SwallowSystem(metrics=False)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultCampaign.from_spec(
                system, {"faults": [{"kind": "gamma_ray", "at_us": 0.0}]}
            )


class TestCli:
    def test_faults_command_default_campaign(self, capsys):
        assert main(["run", "faults_stream",
                     "--params", '{"words": 6, "seed": 1}']) == 0
        out = capsys.readouterr().out
        assert "fault campaign (seed 1)" in out
        assert "6/6 words delivered, intact" in out

    def test_faults_command_json(self, capsys, tmp_path):
        assert main(["run", "faults_stream",
                     "--params", '{"words": 4, "seed": 2}',
                     "--out", str(tmp_path)]) == 0
        document = json.loads((tmp_path / "report.json").read_text())
        assert document["delivered_ok"] is True
        assert document["campaign"]["seed"] == 2
        assert document["campaign"]["channels"]["stream"]["delivered"] == 4

    def test_faults_command_spec_file(self, capsys):
        """A campaign spec's contents are workload params."""
        params = {
            "words": 4,
            "seed": 4,
            "faults": [{"kind": "flaky_link", "at_us": 0.0,
                        "node_a": 0, "node_b": 8, "drop_rate": 0.05}],
        }
        assert main(["run", "faults_stream",
                     "--params", json.dumps(params)]) == 0
        out = capsys.readouterr().out
        assert "fault campaign (seed 4)" in out
        assert "4/4 words delivered, intact" in out
