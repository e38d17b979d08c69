"""Experiment harness: one module per table/figure of the paper.

* :mod:`repro.experiments.fig2_fairness` — Figure 2 (fairness of TCP-PR
  vs TCP-SACK on dumbbell and parking-lot topologies).
* :mod:`repro.experiments.fig3_cov` — Figure 3 (coefficient of variation
  vs loss rate).
* :mod:`repro.experiments.fig4_params` — Figure 4 (sensitivity to the
  TCP-PR parameters alpha and beta) and the Section 4 extreme-loss beta
  sweep.
* :mod:`repro.experiments.fig6_multipath` — Figure 6 (throughput under
  ε-parameterized multipath routing for all protocols).
* :mod:`repro.experiments.fig7_faults` — Figure 7 (extension: goodput
  under scheduled link outages, path blackouts, and ACK loss, via
  :mod:`repro.faults`).

Each figure is a declarative :class:`ExperimentSpec` subclass
(``Fig2Spec`` ... ``Fig7Spec``, ``BetaSweepSpec``) carrying quick/paper
:class:`Scale` presets, a cell function and a formatter.
``run_sweep(spec, jobs=..., cache=..., seed=...)`` runs any of them: it
fans the spec's independent cells over a process pool, reuses cached
results from ``.repro-cache/`` and returns the assembled result, which
the ``format_*`` helpers print as the rows/series the paper reports.

A figure module's top level imports only :mod:`repro.exec.spec` and
:mod:`repro.util`; each cell function imports what it simulates.  So
planning, cache reads, assembly and formatting (everything a cache-warm
figure does) load no simulator, and a cached ``FairnessResult`` decodes
through :mod:`repro.experiments.serialize`, which knows its module.
The names below are re-exported lazily: ``import repro.experiments``
loads no submodule.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache
    from repro.exec.runner import ParallelRunner, run_sweep
    from repro.exec.spec import ExperimentSpec, Scale, SweepCell
    from repro.experiments.runner import (
        FairnessResult,
        FairnessScenario,
        build_fairness_scenario,
        run_fairness,
    )
    from repro.experiments.fig2_fairness import Fig2Result, Fig2Spec
    from repro.experiments.fig3_cov import Fig3Result, Fig3Spec
    from repro.experiments.fig4_params import BetaSweepSpec, Fig4Result, Fig4Spec
    from repro.experiments.fig6_multipath import Fig6Result, Fig6Spec
    from repro.experiments.fig7_faults import Fig7Result, Fig7Spec

#: Public name -> the module that defines it, imported on first access
#: (PEP 562): ``import repro.experiments`` loads no submodule.
_EXPORTS = {
    "BetaSweepSpec": "repro.experiments.fig4_params",
    "ExperimentSpec": "repro.exec.spec",
    "FairnessResult": "repro.experiments.runner",
    "FairnessScenario": "repro.experiments.runner",
    "Fig2Result": "repro.experiments.fig2_fairness",
    "Fig2Spec": "repro.experiments.fig2_fairness",
    "Fig3Result": "repro.experiments.fig3_cov",
    "Fig3Spec": "repro.experiments.fig3_cov",
    "Fig4Result": "repro.experiments.fig4_params",
    "Fig4Spec": "repro.experiments.fig4_params",
    "Fig6Result": "repro.experiments.fig6_multipath",
    "Fig6Spec": "repro.experiments.fig6_multipath",
    "Fig7Result": "repro.experiments.fig7_faults",
    "Fig7Spec": "repro.experiments.fig7_faults",
    "ParallelRunner": "repro.exec.runner",
    "ResultCache": "repro.exec.cache",
    "Scale": "repro.exec.spec",
    "SweepCell": "repro.exec.spec",
    "build_fairness_scenario": "repro.experiments.runner",
    "run_fairness": "repro.experiments.runner",
    "run_sweep": "repro.exec.runner",
}

__all__ = [
    "BetaSweepSpec",
    "ExperimentSpec",
    "FairnessResult",
    "FairnessScenario",
    "Fig2Result",
    "Fig2Spec",
    "Fig3Result",
    "Fig3Spec",
    "Fig4Result",
    "Fig4Spec",
    "Fig6Result",
    "Fig6Spec",
    "Fig7Result",
    "Fig7Spec",
    "ParallelRunner",
    "ResultCache",
    "Scale",
    "SweepCell",
    "build_fairness_scenario",
    "run_fairness",
    "run_sweep",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
