"""Figure 3: coefficient of variation of normalized throughput vs loss.

The loss rate is swept by shrinking the bottleneck bandwidth; the paper's
finding is that TCP-PR's CoV stays comparable to TCP-SACK's across loss
rates of roughly 4-13 %.
"""

import pytest

from repro.exec.runner import run_sweep
from repro.exec.spec import Scale
from repro.experiments.fig3_cov import (
    Fig3Spec,
    PAPER_BANDWIDTHS_MBPS,
    PAPER_DURATION,
    PAPER_FLOWS,
    PAPER_MEASURE_WINDOW,
    QUICK_BANDWIDTHS_MBPS,
    QUICK_DURATION,
    QUICK_FLOWS,
    QUICK_MEASURE_WINDOW,
    format_fig3,
)

from conftest import paper_scale, save_result


def _params():
    if paper_scale():
        return (
            PAPER_BANDWIDTHS_MBPS,
            PAPER_FLOWS,
            PAPER_DURATION,
            PAPER_MEASURE_WINDOW,
        )
    return QUICK_BANDWIDTHS_MBPS, QUICK_FLOWS, QUICK_DURATION, QUICK_MEASURE_WINDOW


@pytest.mark.parametrize("topology", ["dumbbell", "parking-lot"])
def test_fig3_cov_vs_loss(benchmark, topology):
    bandwidths, flows, duration, window = _params()

    def run():
        return run_sweep(Fig3Spec.presets(
            Scale.QUICK,
            topology=topology,
            bandwidths_mbps=bandwidths,
            total_flows=flows,
            duration=duration,
            measure_window=window,
        ))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(f"fig3_{topology}", format_fig3(result))

    # Shape: loss rises as bandwidth shrinks, and TCP-PR's CoV stays in
    # the same regime as TCP-SACK's (neither protocol collapses into a
    # high-variance starvation pattern).
    losses = [point.loss_rate for point in result.points]
    assert losses == sorted(losses)
    for point in result.points:
        assert point.cov["tcp-pr"] < 1.0
        assert point.cov["sack"] < 1.0
