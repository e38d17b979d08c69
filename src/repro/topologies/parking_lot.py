"""Figure 1's parking-lot topology with multiple bottlenecks.

Backbone ``1 - 2 - 3 - 4`` with the main flows running ``S -> D`` across
all three backbone links.  Cross-traffic sources CS1..CS3 attach at
backbone nodes 1..3 and cross destinations CD1..CD3 at nodes 2..4.  The
paper's stated bandwidths:

    CS1->1 = 5 Mbps,  CS2->2 = 1.66 Mbps,  CS3->3 = 2.5 Mbps,
    all other links 15 Mbps,

which makes the three backbone links ``1->2``, ``2->3`` and ``3->4`` the
bottlenecks.  Cross connections (also from the caption): CS1->CD1,
CS1->CD2, CS1->CD3, CS2->CD2, CS2->CD3, CS3->CD3.

Node names: ``S``, ``D``, ``n1..n4``, ``CS1..CS3``, ``CD1..CD3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from repro.net.network import Network, install_static_routes
from repro.sim import Simulator
from repro.topologies.base import Topology, register_topology
from repro.util.units import MBPS, MS

#: The cross-traffic (source, destination) pairs from Figure 1's caption.
CROSS_TRAFFIC_PAIRS: List[Tuple[str, str]] = [
    ("CS1", "CD1"),
    ("CS1", "CD2"),
    ("CS1", "CD3"),
    ("CS2", "CD2"),
    ("CS2", "CD3"),
    ("CS3", "CD3"),
]


@register_topology
@dataclass
class ParkingLotSpec:
    """Parameters of the parking-lot topology (implements ``TopologySpec``).

    Bandwidths default to the paper's; delays are unstated in the paper
    and default to 10 ms on the backbone and 2 ms on access links.
    """

    kind: ClassVar[str] = "parking-lot"

    backbone_bandwidth: float = 15 * MBPS
    cs1_bandwidth: float = 5 * MBPS
    cs2_bandwidth: float = 1.66 * MBPS
    cs3_bandwidth: float = 2.5 * MBPS
    other_bandwidth: float = 15 * MBPS
    backbone_delay: float = 10 * MS
    access_delay: float = 2 * MS
    queue_packets: int = 100
    seed: int = 0

    def endpoints(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        return ("S",), ("D",)

    def build(self, sim: Optional[Simulator] = None) -> Topology:
        """Construct Figure 1's parking lot with shortest-path routes."""
        net = Network(seed=self.seed, sim=sim)
        net.add_nodes("S", "D", "n1", "n2", "n3", "n4")
        net.add_nodes("CS1", "CS2", "CS3", "CD1", "CD2", "CD3")

        # Backbone: the three bottleneck links.
        for left, right in (("n1", "n2"), ("n2", "n3"), ("n3", "n4")):
            net.add_duplex_link(
                left,
                right,
                bandwidth=self.backbone_bandwidth,
                delay=self.backbone_delay,
                queue=self.queue_packets,
            )

        # Main flow attachment points.
        net.add_duplex_link(
            "S", "n1", self.other_bandwidth, self.access_delay, self.queue_packets
        )
        net.add_duplex_link(
            "n4", "D", self.other_bandwidth, self.access_delay, self.queue_packets
        )

        # Cross-traffic sources with the paper's asymmetric ingress rates.
        for name, attach, bandwidth in (
            ("CS1", "n1", self.cs1_bandwidth),
            ("CS2", "n2", self.cs2_bandwidth),
            ("CS3", "n3", self.cs3_bandwidth),
        ):
            net.add_duplex_link(
                name, attach, bandwidth, self.access_delay, self.queue_packets
            )

        # Cross-traffic destinations.
        for name, attach in (("CD1", "n2"), ("CD2", "n3"), ("CD3", "n4")):
            net.add_duplex_link(
                attach, name, self.other_bandwidth, self.access_delay,
                self.queue_packets,
            )
        install_static_routes(net)
        return Topology(
            network=net,
            kind=self.kind,
            senders=("S",),
            receivers=("D",),
            bottlenecks=("n1->n2", "n2->n3", "n3->n4"),
        )
