#!/usr/bin/env python3
"""Regenerate every figure of the paper in one run (quick scale).

Runs miniature versions of Figures 2, 3, 4, and 6 plus the Section 4
extreme-loss beta sweep, prints each reproduced table, and writes the
whole report to ``paper_reproduction_report.txt``.  Takes a few minutes;
for the full-scale versions use the benchmark suite:

    REPRO_PAPER_SCALE=1 pytest benchmarks/ --benchmark-only

Run:
    python examples/reproduce_paper.py [output_path]
"""

import sys
import time

from repro.exec.runner import run_sweep
from repro.exec.spec import Scale
from repro.experiments.fig2_fairness import Fig2Spec, format_fig2
from repro.experiments.fig3_cov import Fig3Spec, format_fig3
from repro.experiments.fig4_params import (
    BetaSweepSpec,
    Fig4Spec,
    format_beta_sweep,
    format_fig4,
)
from repro.experiments.fig6_multipath import Fig6Spec, format_fig6
from repro.util.units import MS


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "paper_reproduction_report.txt"
    sections = []
    started = time.time()

    def section(title, body):
        stamp = time.time() - started
        block = f"[{stamp:7.1f}s] {title}\n{body}\n"
        print(block)
        sections.append(block)

    section(
        "Figure 2 (dumbbell)",
        format_fig2(run_sweep(Fig2Spec.presets(
            Scale.QUICK, topology="dumbbell", flow_counts=(4, 8)
        ))),
    )
    section(
        "Figure 2 (parking lot)",
        format_fig2(run_sweep(Fig2Spec.presets(
            Scale.QUICK, topology="parking-lot", flow_counts=(4, 8)
        ))),
    )
    section(
        "Figure 3 (dumbbell)",
        format_fig3(run_sweep(Fig3Spec.presets(
            Scale.QUICK, topology="dumbbell"
        ))),
    )
    section(
        "Figure 4 (alpha/beta surface)",
        format_fig4(run_sweep(Fig4Spec.presets(
            Scale.QUICK, alphas=(0.995,), betas=(1.0, 3.0)
        ))),
    )
    section(
        "Section 4 extreme-loss beta sweep",
        format_beta_sweep(run_sweep(BetaSweepSpec.presets(
            Scale.QUICK, betas=(3.0, 10.0)
        ))),
    )
    section(
        "Figure 6 (10 ms)",
        format_fig6(run_sweep(Fig6Spec.presets(
            Scale.QUICK, link_delay=10 * MS, epsilons=(0.0, 4.0, 500.0),
            duration=15.0,
        ))),
    )
    section(
        "Figure 6 (60 ms)",
        format_fig6(run_sweep(Fig6Spec.presets(
            Scale.QUICK, link_delay=60 * MS, epsilons=(0.0, 4.0, 500.0),
            duration=15.0,
        ))),
    )

    with open(output_path, "w") as handle:
        handle.write(
            "Quick-scale reproduction of 'TCP-PR: TCP for Persistent Packet "
            "Reordering' (ICDCS 2003)\nSee EXPERIMENTS.md for the "
            "paper-vs-measured discussion.\n\n"
        )
        handle.write("\n".join(sections))
    print(f"full report written to {output_path}")


if __name__ == "__main__":
    main()
