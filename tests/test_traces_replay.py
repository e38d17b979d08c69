"""Round-trip validation: analyze → distill → replay on a pinned
Figure 6 cell.

The acceptance property from the trace-pipeline redesign: replaying a
profile distilled from an ε-multipath run recovers the source trace's
reordering metrics (reorder ratio, mean extent, density) within 10%,
and repeated replays under the same seed are bit-identical.
"""

import pytest

from repro.app.bulk import BulkTransfer
from repro.core.pr import PrConfig
from repro.experiments.fig6_multipath import DEFAULT_INITIAL_SSTHRESH
from repro.obs.trace import PacketTracer
from repro.tcp.base import TcpConfig
from repro.topologies.multipath_mesh import (
    MultipathMeshSpec,
    install_epsilon_routing,
)
from repro.traces import (
    ReorderProfile,
    TraceStream,
    analyze_stream,
    distill_profile,
    replay_flow_workload,
    replay_profile,
)

#: The pinned cell: heavy persistent reordering (ε = 0.01), long enough
#: for a few thousand segments, fixed seed.
PINNED_EPSILON = 0.01
PINNED_DURATION = 6.0
PINNED_SEED = 1
TOLERANCE = 0.10


def _traced_fig6_cell(epsilon=PINNED_EPSILON, duration=PINNED_DURATION,
                      seed=PINNED_SEED):
    net = MultipathMeshSpec(link_delay=0.01, seed=seed).build().network
    install_epsilon_routing(net, epsilon)
    BulkTransfer(
        net,
        "tcp-pr",
        "src",
        "dst",
        flow_id=1,
        tcp_config=TcpConfig(initial_ssthresh=DEFAULT_INITIAL_SSTHRESH),
        pr_config=PrConfig(initial_ssthresh=DEFAULT_INITIAL_SSTHRESH),
    )
    tracer = PacketTracer()
    tracer.watch_node_sends(net.node("src"))
    tracer.watch_node(net.node("dst"))
    net.run(until=duration)
    return TraceStream.from_tracer(tracer)


@pytest.fixture(scope="module")
def round_trip():
    stream = _traced_fig6_cell()
    source = analyze_stream(stream).flow(1)
    profile = distill_profile(stream, flow_id=1, name="fig6 pinned cell")
    replayed = replay_profile(profile, seed=PINNED_SEED)
    return source, profile, replayed


# ----------------------------------------------------------------------
# The 10% acceptance tolerance
# ----------------------------------------------------------------------
def test_source_cell_actually_reorders(round_trip):
    source, _, _ = round_trip
    assert source.unique_arrivals > 1000, "pinned cell too small to trust"
    assert source.reorder_ratio > 0.3, "pinned cell shows no reordering"


def test_replay_recovers_reorder_ratio(round_trip):
    source, _, replayed = round_trip
    error = abs(replayed.reorder_ratio - source.reorder_ratio)
    assert error / source.reorder_ratio <= TOLERANCE


def test_replay_recovers_mean_extent(round_trip):
    source, _, replayed = round_trip
    source_extent = source.extent_summary()["mean"]
    error = abs(replayed.mean_extent() - source_extent)
    assert error / source_extent <= TOLERANCE


def test_replay_recovers_reorder_density(round_trip):
    source, _, replayed = round_trip
    a, b = source.reorder_density(), replayed.reorder_density
    width = max(len(a), len(b))
    a = a + [0.0] * (width - len(a))
    b = b + [0.0] * (width - len(b))
    total_variation = 0.5 * sum(abs(x - y) for x, y in zip(a, b))
    assert total_variation <= TOLERANCE


def test_replay_conserves_packets(round_trip):
    _, profile, replayed = round_trip
    assert replayed.injected == len(profile.send_times)
    assert replayed.delivered + replayed.dropped <= replayed.injected
    assert replayed.delivered > 0.9 * replayed.injected


def test_profile_captured_the_multipath_structure(round_trip):
    _, profile, _ = round_trip
    # ε-routing stamps the route each packet took; the mesh has several.
    assert len(profile.path_extras) > 1
    assert profile.base_delay > 0.0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_replay_is_bit_identical_under_equal_seeds(round_trip):
    _, profile, replayed = round_trip
    again = replay_profile(profile, seed=PINNED_SEED)
    assert again.report.extents == replayed.report.extents
    assert again.report.late_offsets == replayed.report.late_offsets
    assert again.delivered == replayed.delivered
    assert again.dropped == replayed.dropped


def test_replay_seed_changes_the_sampled_process(round_trip):
    _, profile, replayed = round_trip
    other = replay_profile(profile, seed=PINNED_SEED + 1)
    assert other.report.extents != replayed.report.extents


# ----------------------------------------------------------------------
# Closed-loop workload replay
# ----------------------------------------------------------------------
def test_workload_replay_is_deterministic(round_trip):
    _, profile, _ = round_trip
    first = replay_flow_workload(profile, "sack", duration=3.0, seed=0)
    second = replay_flow_workload(profile, "sack", duration=3.0, seed=0)
    assert first == second
    assert first > 0.0


def test_workload_replay_reproduces_the_paper_gap(round_trip):
    """TCP-PR over the distilled reordering link beats a DUPACK-based
    sender — the paper's core claim, reproduced from a replayed trace."""
    _, profile, _ = round_trip
    pr = replay_flow_workload(profile, "tcp-pr", duration=3.0, seed=0)
    sack = replay_flow_workload(profile, "sack", duration=3.0, seed=0)
    assert pr > 2.0 * sack


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
def test_replay_requires_a_send_schedule():
    bare = ReorderProfile(
        name="no-schedule", base_delay=0.01, extra_delays=(0.0, 0.001),
        loss_rate=0.0,
    )
    with pytest.raises(ValueError, match="no recorded send schedule"):
        replay_profile(bare)
