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
"""

from repro.exec import (
    ExperimentSpec,
    ParallelRunner,
    ResultCache,
    Scale,
    SweepCell,
    run_sweep,
)
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
