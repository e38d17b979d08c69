"""Figure 6: throughput under ε-parameterized multipath routing.

The paper's headline comparison: TCP-PR vs TD-FR vs the DSACK responses
(DSACK-NM, Inc by 1, Inc by N, EWMA) for ε ∈ {0, 1, 4, 10, 500}, one
flow at a time, no background traffic; left panel 10 ms link delays,
right panel 60 ms.

Expected shape:
* TCP-PR sustains high throughput at every ε, reaching the multipath
  aggregate (≈ 30+ Mbps) at ε = 0 / 10 ms;
* the DUPACK-based schemes collapse as ε → 0;
* TD-FR holds up at 10 ms but takes "a very large drop in throughput
  when the propagation delay is increased" at ε ≈ 0;
* at ε = 500 every protocol is equal, and slower at 60 ms than 10 ms.
"""

import pytest

from repro.exec.runner import run_sweep
from repro.exec.spec import Scale
from repro.experiments.fig6_multipath import (
    Fig6Spec,
    PAPER_DURATION,
    PAPER_EPSILONS,
    PAPER_PROTOCOLS,
    QUICK_DURATION,
    QUICK_EPSILONS,
    format_fig6,
)
from repro.util.units import MS

from conftest import paper_scale, save_result


def _params():
    if paper_scale():
        return PAPER_EPSILONS, PAPER_DURATION
    return QUICK_EPSILONS, QUICK_DURATION


@pytest.mark.parametrize("delay_ms", [10, 60])
def test_fig6_multipath(benchmark, delay_ms):
    epsilons, duration = _params()

    def run():
        return run_sweep(Fig6Spec.presets(
            Scale.QUICK,
            link_delay=delay_ms * MS,
            protocols=PAPER_PROTOCOLS,
            epsilons=epsilons,
            duration=duration,
        ))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(f"fig6_{delay_ms}ms", format_fig6(result))

    table = result.throughput_mbps
    eps_lo, eps_hi = min(epsilons), max(epsilons)

    # TCP-PR wins at full multipath, by a large factor over DSACK-NM.
    assert table["tcp-pr"][eps_lo] == max(row[eps_lo] for row in table.values())
    assert table["tcp-pr"][eps_lo] > 5 * table["dsack-nm"][eps_lo]

    if delay_ms == 10:
        # TCP-PR aggregates multiple 10 Mbps paths at eps=0.
        assert table["tcp-pr"][eps_lo] > 20.0
        # TD-FR remains reasonable at small eps for small delay.
        assert table["tdfr"][eps_lo] > 5 * table["dsack-nm"][eps_lo]

    # At eps=500 (single path) every protocol is roughly equal.
    single_path = [row[eps_hi] for row in table.values()]
    assert max(single_path) < 2.0 * min(single_path)


def test_fig6_60ms_slower_than_10ms_at_single_path(benchmark):
    """Section 5: 'at ε = 500, all the throughputs are smaller on the
    right [60 ms] than on the left [10 ms]'."""
    duration = PAPER_DURATION if paper_scale() else QUICK_DURATION

    def run():
        fast = run_sweep(Fig6Spec.presets(
            Scale.QUICK, link_delay=10 * MS, protocols=("tcp-pr", "tdfr"),
            epsilons=(500.0,), duration=duration,
        ))
        slow = run_sweep(Fig6Spec.presets(
            Scale.QUICK, link_delay=60 * MS, protocols=("tcp-pr", "tdfr"),
            epsilons=(500.0,), duration=duration,
        ))
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    for protocol in ("tcp-pr", "tdfr"):
        assert (
            slow.throughput_mbps[protocol][500.0]
            < fast.throughput_mbps[protocol][500.0]
        )
