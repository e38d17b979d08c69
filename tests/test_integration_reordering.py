"""Integration tests: the paper's headline claims, at small scale.

These are miniature versions of the benchmark experiments with loose
qualitative assertions, so the core results are continuously guarded by
the fast test suite.
"""

import pytest

from repro.analysis.fairness import mean_normalized_throughput
from repro.app.bulk import BulkTransfer
from repro.core.pr import PrConfig
from repro.experiments.fig6_multipath import run_single_multipath_flow
from repro.experiments.runner import run_fairness
from repro.routing.flap import RouteFlapper
from repro.net.network import Network, install_static_routes
from repro.tcp.receiver import TcpReceiver
from repro.tcp.registry import make_sender


def test_headline_tcp_pr_beats_sack_under_full_multipath():
    """Figure 6 at ε=0: TCP-PR sustains multipath throughput while a
    DUPACK-based protocol collapses."""
    pr = run_single_multipath_flow("tcp-pr", epsilon=0.0, duration=10.0)
    sack = run_single_multipath_flow("sack", epsilon=0.0, duration=10.0)
    assert pr > 5 * sack
    assert pr > 12.0  # uses more than one 10 Mbps path


def test_protocols_equal_on_single_path():
    """Figure 6 at ε=500: timer-based and DUPACK-based detection tie."""
    pr = run_single_multipath_flow("tcp-pr", epsilon=500.0, duration=10.0)
    sack = run_single_multipath_flow("sack", epsilon=500.0, duration=10.0)
    assert pr == pytest.approx(sack, rel=0.2)


def test_tcp_pr_dominates_every_baseline_at_eps_zero():
    results = {}
    for variant in ("tcp-pr", "tdfr", "dsack-nm", "ewma"):
        results[variant] = run_single_multipath_flow(
            variant, epsilon=0.0, duration=10.0
        )
    assert results["tcp-pr"] == max(results.values())
    assert results["tcp-pr"] > 2 * results["dsack-nm"]


def test_fairness_with_sack_without_reordering():
    """Figure 2's claim at small scale: mean normalized throughput of
    both protocols within ~15% of 1."""
    result = run_fairness(
        topology="dumbbell", total_flows=8, duration=25.0, measure_window=15.0
    )
    assert result.mean_normalized["tcp-pr"] == pytest.approx(1.0, abs=0.15)
    assert result.mean_normalized["sack"] == pytest.approx(1.0, abs=0.15)


def test_route_flapping_scenario():
    """The MANET motivation: periodic route changes between paths of
    different RTTs reorder packets; TCP-PR keeps the pipe full."""

    def build(variant):
        net = Network(seed=9)
        net.add_nodes("s", "d")
        for k in range(2):
            mids = [f"p{k}m{i}" for i in range(k + 1)]
            for m in mids:
                net.add_node(m)
            chain = ["s", *mids, "d"]
            for u, v in zip(chain, chain[1:]):
                net.add_duplex_link(u, v, bandwidth=5e6, delay=0.02, queue=200)
        install_static_routes(net)
        RouteFlapper(net, "s", "d", period=0.25).install()
        sender = make_sender(variant, net.sim, net.node("s"), 1, "d")
        receiver = TcpReceiver(net.sim, net.node("d"), 1, "s")
        sender.start(0.0)
        net.run(until=15.0)
        return receiver.delivered

    pr = build("tcp-pr")
    sack = build("sack")
    assert pr > sack


def test_mixed_variants_share_one_bottleneck():
    """Several different variants coexist on one link without starving."""
    from repro.topologies.dumbbell import DumbbellSpec
    from repro.util.units import MBPS

    net = DumbbellSpec(num_pairs=1, bottleneck_bandwidth=8 * MBPS,
                       access_bandwidth=100 * MBPS, access_delay=1e-3,
                       seed=4).build().network
    variants = ["tcp-pr", "sack", "newreno", "tdfr"]
    flows = [
        BulkTransfer(net, variant, "s0", "d0", flow_id=i + 1, start_at=0.2 * i)
        for i, variant in enumerate(variants)
    ]
    net.run(until=30.0)
    throughputs = {
        flow.variant: [flow.delivered_bytes() * 8 / 30] for flow in flows
    }
    means = mean_normalized_throughput(throughputs)
    for variant, value in means.items():
        assert 0.4 < value < 2.0, f"{variant} starved or hogged: {value}"


def test_ack_path_reordering_alone_harms_dupack_tcp_less():
    """Reordering only the ACK path (data path single): cumulative ACKs
    make even standard TCP fairly robust, and TCP-PR must not be worse."""
    pr = run_single_multipath_flow(
        "tcp-pr", epsilon=0.0, duration=8.0, reorder_acks=True
    )
    pr_data_only = run_single_multipath_flow(
        "tcp-pr", epsilon=0.0, duration=8.0, reorder_acks=False
    )
    # TCP-PR is insensitive to whether ACKs are also reordered.
    assert pr == pytest.approx(pr_data_only, rel=0.3)
