"""Unit tests for Figure 2's constant-per-flow-share dumbbell scaling."""

import pytest

from repro.experiments.fig2_fairness import (
    DUMBBELL_PER_FLOW_BPS,
    PAPER_FLOW_COUNTS,
    QUICK_FLOW_COUNTS,
)


def test_reference_point_matches_15mbps_at_8_flows():
    assert DUMBBELL_PER_FLOW_BPS * 8 == pytest.approx(15e6)


def test_flow_count_sweeps_are_even():
    """The fairness runner requires an even split of the two protocols."""
    for count in (*QUICK_FLOW_COUNTS, *PAPER_FLOW_COUNTS):
        assert count % 2 == 0 and count >= 2


def test_paper_counts_match_figure2_axis():
    assert tuple(PAPER_FLOW_COUNTS) == (4, 8, 16, 32, 64)


def test_scaling_keeps_per_flow_share_constant():
    """Reconstruct the spec exactly as run_fig2_cell builds it and check the
    per-flow share and queue-per-flow stay fixed across the sweep."""
    for count in PAPER_FLOW_COUNTS:
        bandwidth = max(15e6, DUMBBELL_PER_FLOW_BPS * count)
        scale = max(1.0, count / 8.0)
        queue = int(100 * scale)
        if count >= 8:
            assert bandwidth / count == pytest.approx(DUMBBELL_PER_FLOW_BPS)
            assert queue / count == pytest.approx(100 / 8)
