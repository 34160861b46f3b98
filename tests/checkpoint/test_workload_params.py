"""Workload builders declare their params; anything else is refused.

A key no builder reads would otherwise run the defaults and still give
a sweep point a job digest of its own.
"""

import json
import re
import runpy
from pathlib import Path

import pytest

from repro.checkpoint import (
    WORKLOAD_PARAMS,
    WORKLOADS,
    CheckpointError,
    build_workload,
)
from repro.checkpoint.workloads import SHARED_PARAMS
from repro.dse import SweepSpec

ROOT = Path(__file__).resolve().parents[2]


class TestDeclaredParams:
    def test_misspelt_key_is_refused(self):
        with pytest.raises(CheckpointError, match="wrods"):
            build_workload("faults_stream", {"wrods": 8})

    def test_key_of_another_workload_is_refused(self):
        with pytest.raises(CheckpointError, match="messages"):
            build_workload("demo", {"seed": 1, "messages": 3})

    def test_every_workload_takes_the_shared_keys(self):
        assert set(WORKLOAD_PARAMS) == set(WORKLOADS)
        for keys in WORKLOAD_PARAMS.values():
            assert SHARED_PARAMS <= keys


def ci_param_sets():
    """(workload, params) of every job CI's sweep specs and runs start."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    sets = []
    for block in re.findall(r"cat > \w+\.json <<'EOF'\n(.*?)\n\s*EOF",
                            text, re.S):
        spec = json.loads(block)
        sets += [(job.workload, job.params)
                 for job in SweepSpec.from_dict(spec).jobs()]
    for workload, params in re.findall(
            r"python -m repro run (\w+) \\\s*--params '(.*?)'", text, re.S):
        sets.append((workload, json.loads(params)))
    return sets


def sweep_param_sets():
    """(workload, params) of the shipped sweeps and the policy zoo."""
    example = runpy.run_path(str(ROOT / "examples" / "dse_pareto.py"))
    bench = runpy.run_path(str(ROOT / "benchmarks" / "bench_sweep.py"))
    specs = [example["SPEC"], SweepSpec.from_dict(bench["SWEEP"]),
             SweepSpec.from_file(ROOT / "examples" / "policy_zoo.json")]
    jobs = [job for spec in specs for job in spec.jobs()]
    return [(job.workload, job.params) for job in jobs]


class TestShippedParamSets:
    def test_ci_param_sets_are_accepted(self):
        sets = ci_param_sets()
        # Two sweep specs (the 24-job sweep smoke and the 12-cell zoo
        # smoke) and eight runs with --params.
        assert len(sets) == 24 + 12 + 8
        for workload, params in sets:
            assert set(params) <= WORKLOAD_PARAMS[workload], params

    def test_sweep_param_sets_are_accepted(self):
        for workload, params in sweep_param_sets():
            assert set(params) <= WORKLOAD_PARAMS[workload], params
