"""repro.dse — sweeps over workload params, folded and Pareto-pruned.

The engine behind ``repro sweep``: one declarative :class:`SweepSpec`
(a workload, base params, sweep axes, optional objectives) crosses
topology x link aggregation x slice counts x DVFS points x policy x
seeds, executes through the campaign farm with content-addressed
caching (:func:`run_sweep`) or in-process (:func:`run_inline`), folds
into the canonical ``dse-report/2`` document (:mod:`repro.dse.report`),
and is analysed into non-dominated fronts with dominance provenance
and knee points (:mod:`repro.dse.pareto`).  Visual exports live in
:mod:`repro.dse.exports`; static wiring summaries in
:mod:`repro.dse.structure`.
"""

from repro.dse.engine import (
    EXPORTS,
    SweepDirs,
    load_spec,
    run_inline,
    run_sweep,
)
from repro.dse.exports import fleet_overlay, sweep_timeline
from repro.dse.pareto import (
    ascii_scatter,
    front_csv,
    front_json,
    pareto_acceptance_check,
    pareto_front,
)
from repro.dse.report import extract_metrics, fold_results, report_json
from repro.dse.spec import Objective, SweepSpec, default_objectives
from repro.dse.structure import structure_summary

__all__ = [
    "EXPORTS",
    "Objective",
    "SweepDirs",
    "SweepSpec",
    "ascii_scatter",
    "default_objectives",
    "extract_metrics",
    "fleet_overlay",
    "fold_results",
    "front_csv",
    "front_json",
    "load_spec",
    "pareto_acceptance_check",
    "pareto_front",
    "report_json",
    "run_inline",
    "run_sweep",
    "structure_summary",
    "sweep_timeline",
]
