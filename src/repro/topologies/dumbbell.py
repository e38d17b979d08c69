"""The dumbbell (single-bottleneck) topology of Section 4.

All flows share one bottleneck link between two routers; each sender and
receiver hangs off its own access link.  The paper does not state its
dumbbell parameters, so the defaults here are typical paper-era values
consistent with the parking-lot numbers of Figure 1 (15 Mbps links), and
every parameter is adjustable through :class:`DumbbellSpec`.

Node naming: senders ``s0..s{n-1}``, receivers ``d0..d{n-1}``, routers
``r0`` (left) and ``r1`` (right).  Flow *i* runs ``si -> di``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from repro.net.network import Network, install_static_routes
from repro.sim import Simulator
from repro.topologies.base import Topology, register_topology
from repro.util.units import MBPS, MS


@register_topology
@dataclass
class DumbbellSpec:
    """Parameters of a dumbbell topology (implements ``TopologySpec``).

    Attributes:
        num_pairs: Number of sender/receiver pairs.
        bottleneck_bandwidth: Bottleneck link rate (bits/second).
        bottleneck_delay: Bottleneck propagation delay (seconds).
        access_bandwidth: Per-host access link rate.
        access_delay: Per-host access link delay.
        queue_packets: DropTail queue capacity on every link.
        seed: Master RNG seed for the simulation.
    """

    kind: ClassVar[str] = "dumbbell"

    num_pairs: int = 2
    bottleneck_bandwidth: float = 15 * MBPS
    bottleneck_delay: float = 10 * MS
    access_bandwidth: float = 15 * MBPS
    access_delay: float = 2 * MS
    queue_packets: int = 100
    seed: int = 0

    def rtt_floor(self) -> float:
        """Two-way propagation delay with zero queueing."""
        return 2.0 * (self.bottleneck_delay + 2 * self.access_delay)

    def endpoints(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        senders = tuple(f"s{i}" for i in range(self.num_pairs))
        receivers = tuple(f"d{i}" for i in range(self.num_pairs))
        return senders, receivers

    def build(self, sim: Optional[Simulator] = None) -> Topology:
        """Construct the dumbbell and install shortest-path routes.

        Pass ``sim`` to host the topology on a pre-built simulator (e.g.
        ``Simulator(seed=..., profile=True)``); otherwise one is created
        from :attr:`seed`.
        """
        if self.num_pairs < 1:
            raise ValueError(f"need at least one pair, got {self.num_pairs}")
        net = Network(seed=self.seed, sim=sim)
        net.add_nodes("r0", "r1")
        net.add_duplex_link(
            "r0",
            "r1",
            bandwidth=self.bottleneck_bandwidth,
            delay=self.bottleneck_delay,
            queue=self.queue_packets,
        )
        for i in range(self.num_pairs):
            net.add_node(f"s{i}")
            net.add_node(f"d{i}")
            net.add_duplex_link(
                f"s{i}",
                "r0",
                bandwidth=self.access_bandwidth,
                delay=self.access_delay,
                queue=self.queue_packets,
            )
            net.add_duplex_link(
                "r1",
                f"d{i}",
                bandwidth=self.access_bandwidth,
                delay=self.access_delay,
                queue=self.queue_packets,
            )
        install_static_routes(net)
        senders, receivers = self.endpoints()
        return Topology(
            network=net,
            kind=self.kind,
            senders=senders,
            receivers=receivers,
            bottlenecks=("r0->r1",),
        )
