"""Tests for the TopologySpec protocol and the scale-out generators
(fat-tree, WAN mesh)."""

import pytest

from repro.topologies import (
    DumbbellSpec,
    FatTreeSpec,
    MultipathMeshSpec,
    ParkingLotSpec,
    Topology,
    TopologySpec,
    WanMeshSpec,
    topology_class,
    topology_from_jsonable,
    topology_kinds,
    topology_to_jsonable,
    topology_with_seed,
)


# ----------------------------------------------------------------------
# The protocol and registry
# ----------------------------------------------------------------------
def test_all_kinds_registered():
    kinds = topology_kinds()
    for kind in ("dumbbell", "parking-lot", "multipath-mesh", "fat-tree",
                 "wan-mesh"):
        assert kind in kinds
    assert topology_class("fat-tree") is FatTreeSpec


def test_specs_satisfy_protocol():
    for spec in (DumbbellSpec(), ParkingLotSpec(), MultipathMeshSpec(),
                 FatTreeSpec(), WanMeshSpec()):
        assert isinstance(spec, TopologySpec)


@pytest.mark.parametrize(
    "spec",
    [
        DumbbellSpec(num_pairs=3, seed=5),
        ParkingLotSpec(seed=2),
        MultipathMeshSpec(num_paths=3, seed=1),
        FatTreeSpec(k=4, oversubscription=2.0, seed=9),
        WanMeshSpec(sites=5, degree=2.5, seed=4),
    ],
)
def test_topology_json_round_trip(spec):
    data = topology_to_jsonable(spec)
    assert data["kind"] == type(spec).kind
    assert topology_from_jsonable(data) == spec


def test_topology_from_jsonable_rejects_unknown_kind():
    with pytest.raises(ValueError):
        topology_from_jsonable({"kind": "moebius-strip"})


def test_topology_with_seed():
    spec = topology_with_seed(FatTreeSpec(seed=0), 77)
    assert isinstance(spec, FatTreeSpec)
    assert spec.seed == 77


def test_build_returns_topology_with_handles():
    built = DumbbellSpec(num_pairs=2).build()
    assert isinstance(built, Topology)
    assert built.kind == "dumbbell"
    assert built.senders == ("s0", "s1")
    assert built.receivers == ("d0", "d1")
    assert built.bottlenecks == ("r0->r1",)
    (link,) = built.bottleneck_links()
    assert link is built.network.link("r0", "r1")
    assert built.sim is built.network.sim


def test_endpoints_match_build():
    for spec in (DumbbellSpec(num_pairs=2), ParkingLotSpec(),
                 MultipathMeshSpec(), FatTreeSpec(), WanMeshSpec(sites=4)):
        senders, receivers = spec.endpoints()
        built = spec.build()
        assert tuple(built.senders) == tuple(senders)
        assert tuple(built.receivers) == tuple(receivers)
        for name in set(senders) | set(receivers):
            assert name in built.network.nodes


# ----------------------------------------------------------------------
# Fat-tree
# ----------------------------------------------------------------------
def test_fat_tree_structure_k4():
    spec = FatTreeSpec(k=4, hosts_per_edge=2)
    built = spec.build()
    net = built.network
    # (k/2)^2 cores + k pods x (k/2 agg + k/2 edge) + hosts.
    assert len(net.nodes) == 4 + 4 * (2 + 2) + 16
    assert spec.num_hosts() == 16
    assert len(built.senders) == 16
    # 16 host + 16 edge-agg + 16 agg-core simplex pairs, both directions.
    assert len(net.links) == 96


def test_fat_tree_routes_end_to_end():
    built = FatTreeSpec(k=4, hosts_per_edge=1).build()
    hosts = built.senders
    src, dst = hosts[0], hosts[-1]
    # Cross-pod route exists from the very first hop.
    assert dst in built.network.node(src).routes


def test_fat_tree_oversubscription_thins_uplinks():
    spec = FatTreeSpec(k=4, bandwidth=100e6, oversubscription=4.0)
    net = spec.build().network
    host_link = net.link("p0e0h0", "p0e0")
    uplink = net.link("p0a0", "c0")
    assert host_link.bandwidth == pytest.approx(100e6)
    assert uplink.bandwidth == pytest.approx(25e6)


def test_fat_tree_delay_jitter_deterministic_and_bounded():
    spec = FatTreeSpec(k=4, delay_jitter=0.5, seed=3)
    delays_a = [link.delay for link in spec.build().network.links.values()]
    delays_b = [link.delay for link in spec.build().network.links.values()]
    assert delays_a == delays_b
    base = max(spec.host_delay, spec.switch_delay)
    assert all(0 < delay <= base * 1.5 + 1e-12 for delay in delays_a)
    jittered = FatTreeSpec(k=4, delay_jitter=0.5, seed=4).build()
    assert [link.delay for link in jittered.network.links.values()] != delays_a


def test_fat_tree_validation():
    with pytest.raises(ValueError):
        FatTreeSpec(k=3).build()
    with pytest.raises(ValueError):
        FatTreeSpec(oversubscription=0.5).build()
    with pytest.raises(ValueError):
        FatTreeSpec(delay_jitter=1.0).build()


# ----------------------------------------------------------------------
# WAN mesh
# ----------------------------------------------------------------------
def test_wan_mesh_backbone_is_deterministic_per_seed():
    pairs_a = WanMeshSpec(sites=8, degree=3.0, seed=1).backbone_pairs()
    pairs_b = WanMeshSpec(sites=8, degree=3.0, seed=1).backbone_pairs()
    pairs_c = WanMeshSpec(sites=8, degree=3.0, seed=2).backbone_pairs()
    assert pairs_a == pairs_b
    assert pairs_a != pairs_c


def test_wan_mesh_ring_guarantees_connectivity():
    spec = WanMeshSpec(sites=6, degree=2.0, hosts_per_site=1, seed=0)
    pairs = set(spec.backbone_pairs())
    for i in range(6):
        assert tuple(sorted((i, (i + 1) % 6))) in pairs
    built = spec.build()
    # Static routes reach every host from every other.
    src, dst = built.senders[0], built.senders[-1]
    assert dst in built.network.node(src).routes


def test_wan_mesh_backbone_delays_within_range():
    spec = WanMeshSpec(sites=6, delay_min=0.005, delay_max=0.040, seed=7)
    net = spec.build().network
    for (a, b) in spec.backbone_pairs():
        delay = net.link(f"r{a}", f"r{b}").delay
        assert 0.005 <= delay <= 0.040


def test_wan_mesh_hostless_sites_expose_routers():
    spec = WanMeshSpec(sites=4, hosts_per_site=0)
    senders, receivers = spec.endpoints()
    assert senders == receivers == ("r0", "r1", "r2", "r3")


def test_wan_mesh_validation():
    with pytest.raises(ValueError):
        WanMeshSpec(sites=1).build()
    with pytest.raises(ValueError):
        WanMeshSpec(delay_min=0.05, delay_max=0.01).build()


# ----------------------------------------------------------------------
# ``spec.build().network`` is the bare network
# ----------------------------------------------------------------------
def test_builder_wrappers_return_bare_networks():
    net = DumbbellSpec(num_pairs=1).build().network
    assert "r0" in net.nodes
    net = ParkingLotSpec().build().network
    assert "n1" in net.nodes
    net = MultipathMeshSpec().build().network
    assert "src" in net.nodes
