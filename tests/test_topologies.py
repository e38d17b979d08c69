"""Tests for the topology builders (Figures 1 and 5, plus the dumbbell)."""

import pytest

from repro.routing.multipath import discover_paths
from repro.topologies.dumbbell import DumbbellSpec
from repro.topologies.multipath_mesh import (
    MultipathMeshSpec,
    install_epsilon_routing,
)
from repro.topologies.parking_lot import CROSS_TRAFFIC_PAIRS, ParkingLotSpec
from repro.util.units import MBPS


# ----------------------------------------------------------------------
# Dumbbell
# ----------------------------------------------------------------------
def test_dumbbell_structure():
    net = DumbbellSpec(num_pairs=3).build().network
    assert set(net.nodes) == {"r0", "r1", "s0", "s1", "s2", "d0", "d1", "d2"}
    # 1 bottleneck + 6 access links, both directions.
    assert len(net.links) == 14


def test_dumbbell_bottleneck_parameters():
    spec = DumbbellSpec(bottleneck_bandwidth=5 * MBPS, bottleneck_delay=0.02)
    net = spec.build().network
    link = net.link("r0", "r1")
    assert link.bandwidth == pytest.approx(5 * MBPS)
    assert link.delay == pytest.approx(0.02)


def test_dumbbell_routes_end_to_end():
    net = DumbbellSpec(num_pairs=2).build().network
    assert net.node("s0").routes["d0"] == "r0"
    assert net.node("r0").routes["d1"] == "r1"
    assert net.node("r1").routes["s0"] == "r0"


def test_dumbbell_rtt_floor():
    spec = DumbbellSpec(bottleneck_delay=0.010, access_delay=0.002)
    assert spec.rtt_floor() == pytest.approx(2 * (0.010 + 0.004))


def test_dumbbell_rejects_zero_pairs():
    with pytest.raises(ValueError):
        DumbbellSpec(num_pairs=0).build()


# ----------------------------------------------------------------------
# Parking lot (Figure 1)
# ----------------------------------------------------------------------
def test_parking_lot_nodes_and_cross_pairs():
    net = ParkingLotSpec().build().network
    for name in ("S", "D", "n1", "n2", "n3", "n4", "CS1", "CS2", "CS3",
                 "CD1", "CD2", "CD3"):
        assert name in net.nodes
    assert len(CROSS_TRAFFIC_PAIRS) == 6


def test_parking_lot_paper_bandwidths():
    """The caption's asymmetric ingress rates: CS1->1 = 5 Mbps,
    CS2->2 = 1.66 Mbps, CS3->3 = 2.5 Mbps, everything else 15 Mbps."""
    net = ParkingLotSpec().build().network
    assert net.link("CS1", "n1").bandwidth == pytest.approx(5 * MBPS)
    assert net.link("CS2", "n2").bandwidth == pytest.approx(1.66 * MBPS)
    assert net.link("CS3", "n3").bandwidth == pytest.approx(2.5 * MBPS)
    for src, dst in (("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("S", "n1")):
        assert net.link(src, dst).bandwidth == pytest.approx(15 * MBPS)


def test_parking_lot_main_path_crosses_all_bottlenecks():
    net = ParkingLotSpec().build().network
    # S -> D goes through n1, n2, n3, n4.
    hops = []
    current = "S"
    while current != "D":
        nxt = net.node(current).routes["D"]
        hops.append(nxt)
        current = nxt
    assert hops == ["n1", "n2", "n3", "n4", "D"]


def test_parking_lot_cross_routes_exist():
    net = ParkingLotSpec().build().network
    for cs, cd in CROSS_TRAFFIC_PAIRS:
        assert cd in net.node(cs).routes


# ----------------------------------------------------------------------
# Multipath mesh (Figure 5)
# ----------------------------------------------------------------------
def test_mesh_has_requested_disjoint_paths():
    spec = MultipathMeshSpec(num_paths=4)
    net = spec.build().network
    paths = discover_paths(net, "src", "dst")
    assert len(paths) == 4
    # Hop counts 2, 3, 4, 5 at 10 ms per link.
    assert paths.costs == pytest.approx([0.02, 0.03, 0.04, 0.05])


def test_mesh_paper_link_parameters():
    net = MultipathMeshSpec().build().network
    for link in net.links.values():
        assert link.bandwidth == pytest.approx(10 * MBPS)
        assert link.queue.capacity == 100
        assert link.delay == pytest.approx(0.010)


def test_mesh_60ms_variant():
    net = MultipathMeshSpec(link_delay=0.060).build().network
    assert net.link("src", "p0m0").delay == pytest.approx(0.060)


def test_mesh_epsilon_routing_install():
    net = MultipathMeshSpec(num_paths=3).build().network
    policy = install_epsilon_routing(net, epsilon=0.0)
    assert net.node("src").path_policy is policy
    assert net.node("dst").path_policy is not None
    weights = policy.weights_for("dst")
    assert weights == pytest.approx([1 / 3] * 3)


def test_mesh_epsilon_500_is_effectively_single_path():
    net = MultipathMeshSpec(num_paths=4).build().network
    policy = install_epsilon_routing(net, epsilon=500.0)
    weights = policy.weights_for("dst")
    assert weights[0] == pytest.approx(1.0)


def test_mesh_rejects_zero_paths():
    with pytest.raises(ValueError):
        MultipathMeshSpec(num_paths=0).build()
