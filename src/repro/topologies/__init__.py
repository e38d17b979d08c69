"""Topology builders for the paper's experiments and scale-out scenarios.

Every shape implements the :class:`~repro.topologies.base.TopologySpec`
protocol — ``spec.build(sim) -> Topology`` returns the network plus
named sender/receiver/bottleneck handles, ``spec.endpoints()`` answers
the endpoint question without building, and the ``kind`` registry
round-trips any spec through JSON (see ``docs/SCENARIOS.md``):

* :class:`~repro.topologies.dumbbell.DumbbellSpec` — the classic
  single-bottleneck topology of Section 4;
* :class:`~repro.topologies.parking_lot.ParkingLotSpec` — Figure 1's
  multi-bottleneck parking lot with its six cross-traffic pairs;
* :class:`~repro.topologies.multipath_mesh.MultipathMeshSpec` —
  Figure 5's multi-path source→destination comparison topology;
* :class:`~repro.topologies.fat_tree.FatTreeSpec` — k-ary datacenter
  fat-tree with parameterized oversubscription and delay jitter;
* :class:`~repro.topologies.wan_mesh.WanMeshSpec` — random wide-area
  mesh (ring + chords) with heterogeneous per-link delays.

A caller that only needs the network takes ``spec.build(sim).network``.
"""

from repro.topologies.base import (
    Topology,
    TopologySpec,
    register_topology,
    topology_class,
    topology_from_jsonable,
    topology_kinds,
    topology_to_jsonable,
    topology_with_seed,
)
from repro.topologies.dumbbell import DumbbellSpec
from repro.topologies.fat_tree import FatTreeSpec
from repro.topologies.multipath_mesh import (
    MultipathMeshSpec,
    install_epsilon_routing,
)
from repro.topologies.parking_lot import CROSS_TRAFFIC_PAIRS, ParkingLotSpec
from repro.topologies.wan_mesh import WanMeshSpec

__all__ = [
    "CROSS_TRAFFIC_PAIRS",
    "DumbbellSpec",
    "FatTreeSpec",
    "MultipathMeshSpec",
    "ParkingLotSpec",
    "Topology",
    "TopologySpec",
    "WanMeshSpec",
    "install_epsilon_routing",
    "register_topology",
    "topology_class",
    "topology_from_jsonable",
    "topology_kinds",
    "topology_to_jsonable",
    "topology_with_seed",
]
