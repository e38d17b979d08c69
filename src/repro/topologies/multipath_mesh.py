"""Figure 5's multi-path comparison topology.

The paper's drawing is a source→destination mesh in which "each link has
a bandwidth of 10 Mbps and queue has a size of 100 packets", with all
link delays equal (10 ms in one experiment set, 60 ms in the other), and
multiple independent paths.  At ε = 0 the measured aggregate reaches
≈ 30-35 Mbps, implying at least four usable 10 Mbps paths.

We build the closest synthetic equivalent satisfying every stated
constraint: ``num_paths`` node-disjoint paths between ``src`` and
``dst``, with hop counts ``2, 3, 4, 5, ...`` so the ε-parameterized
softmin routing has distinct path costs to discriminate on (with all
links equal-delay, the cost differences come from hop count, exactly as
in a mesh).  Intermediate nodes are named ``p{k}m{i}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from repro.net.network import Network, install_static_routes
from repro.routing.multipath import EpsilonMultipathPolicy
from repro.sim import Simulator
from repro.topologies.base import Topology, register_topology
from repro.util.units import MBPS, MS


@register_topology
@dataclass
class MultipathMeshSpec:
    """Parameters of the Figure 5 mesh (implements ``TopologySpec``).

    Attributes:
        num_paths: Node-disjoint path count (>= 1).
        link_delay: Per-link propagation delay (10 ms or 60 ms in the paper).
        bandwidth: Per-link rate (paper: 10 Mbps).
        queue_packets: DropTail queue size (paper: 100).
        min_hops: Hop count of the shortest path; path k has
            ``min_hops + k`` hops.
        seed: Master RNG seed.
    """

    kind: ClassVar[str] = "multipath-mesh"

    num_paths: int = 4
    link_delay: float = 10 * MS
    bandwidth: float = 10 * MBPS
    queue_packets: int = 100
    min_hops: int = 2
    seed: int = 0

    def path_hop_counts(self) -> List[int]:
        return [self.min_hops + k for k in range(self.num_paths)]

    def endpoints(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        return ("src",), ("dst",)

    def build(self, sim: Optional[Simulator] = None) -> Topology:
        """Construct the mesh; nodes ``src`` and ``dst`` are the endpoints."""
        if self.num_paths < 1:
            raise ValueError(f"need at least one path, got {self.num_paths}")
        net = Network(seed=self.seed, sim=sim)
        net.add_nodes("src", "dst")
        for k, hops in enumerate(self.path_hop_counts()):
            middles = [f"p{k}m{i}" for i in range(hops - 1)]
            for name in middles:
                net.add_node(name)
            chain = ["src", *middles, "dst"]
            for left, right in zip(chain, chain[1:]):
                net.add_duplex_link(
                    left,
                    right,
                    bandwidth=self.bandwidth,
                    delay=self.link_delay,
                    queue=self.queue_packets,
                )
        install_static_routes(net)
        return Topology(
            network=net,
            kind=self.kind,
            senders=("src",),
            receivers=("dst",),
        )


def install_epsilon_routing(
    net: Network,
    epsilon: float,
    reorder_acks: bool = True,
    max_paths: Optional[int] = None,
) -> EpsilonMultipathPolicy:
    """Attach ε-multipath policies for ``src -> dst`` (and the ACK path).

    Returns the forward-direction policy (for path-usage diagnostics).
    """
    forward: EpsilonMultipathPolicy = EpsilonMultipathPolicy(
        net, "src", epsilon=epsilon, destinations=["dst"], max_paths=max_paths
    ).install()
    if reorder_acks:
        EpsilonMultipathPolicy(
            net, "dst", epsilon=epsilon, destinations=["src"], max_paths=max_paths
        ).install()
    return forward
