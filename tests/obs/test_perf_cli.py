"""End-to-end test for ``python -m repro run --heartbeat-every``.

The flag streams deterministic JSONL: byte-identical cores across two
same-seed runs, wall fields present on the wire.
"""

import json

from repro.__main__ import main
from repro.obs.perf import WALL_FIELDS


class TestHeartbeatCli:
    def faults_heartbeat(self, out):
        assert main([
            "run", "faults_stream", "--params", '{"words": 12, "seed": 3}',
            "--heartbeat-every", "500", "--out", str(out),
        ]) == 0
        beats = (out / "heartbeat.jsonl").read_text()
        return [json.loads(line) for line in beats.splitlines()]

    def test_heartbeat_jsonl_byte_identical_modulo_wall(self, tmp_path):
        runs = [self.faults_heartbeat(tmp_path / f"hb{i}")
                for i in range(2)]
        assert len(runs[0]) >= 2
        assert runs[0][-1]["final"] is True
        strip = [
            [{k: v for k, v in line.items() if k not in WALL_FIELDS}
             for line in run]
            for run in runs
        ]
        assert strip[0] == strip[1]
        # ... and the wall fields really are present on the wire.
        assert all("wall_s" in line for line in runs[0])
