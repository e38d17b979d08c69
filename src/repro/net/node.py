"""Nodes and the transport-agent attachment point.

A :class:`Node` forwards packets in one of three ways, checked in order:

1. If the packet is addressed to this node, it is delivered to the local
   :class:`Agent` registered for the packet's flow.
2. If the packet carries a source route (per-packet multipath routing),
   the next hop comes from the route.
3. Otherwise the node's static destination-based table is consulted.

Origin nodes may have a *path policy* (see :mod:`repro.routing`): when a
local agent injects a packet, the policy can stamp a full source route on
it, which is how the ε-parameterized multipath routing of Section 5 is
realized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol

from repro.net.packet import Packet
from repro.sim.errors import SimulationError

if TYPE_CHECKING:
    from repro.net.link import Link
    from repro.sim.engine import Simulator

#: Compiled subclasses from ``repro._cext._core`` (None when the pure
#: engine is active).  Written only by :mod:`repro.core.engine_select`;
#: read by ``Node.__new__`` — nodes attached to a compiled simulator
#: forward packets in C (see docs/COMPILED.md).
_COMPILED_NODE: Optional[type] = None
_COMPILED_SIMULATOR: Optional[type] = None


class Agent:
    """Base class for transport endpoints attached to a node.

    Subclasses (TCP senders/receivers, traffic sources) override
    :meth:`receive`.  Construction registers the agent with the node under
    ``flow_id``.
    """

    def __init__(self, sim: "Simulator", node: "Node", flow_id: int) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        node.register_agent(flow_id, self)

    def receive(self, packet: Packet) -> None:
        """Handle a packet addressed to this agent."""
        raise NotImplementedError

    def inject(self, packet: Packet) -> None:
        """Send ``packet`` into the network from this agent's node."""
        packet.sent_at = self.sim.now
        self.node.send(packet)


class PathPolicy(Protocol):
    """Per-origin routing policy that may assign a source route."""

    def choose_route(self, packet: Packet) -> Optional[List[str]]:
        """Return a node-name path (including origin and destination) or None."""
        ...


class Node:
    """A named network node: links out, a static route table, local agents."""

    def __new__(cls, sim: object = None, *args: Any, **kwargs: Any) -> "Node":
        # Engine selection follows the simulator instance: see the
        # matching hooks on Simulator and Link.
        if (
            cls is Node
            and _COMPILED_NODE is not None
            and _COMPILED_SIMULATOR is not None
            and isinstance(sim, _COMPILED_SIMULATOR)
        ):
            new: Callable[..., "Node"] = _COMPILED_NODE.__new__
            return new(_COMPILED_NODE)
        return object.__new__(cls)

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        #: Outgoing links keyed by downstream node name.
        self.links: Dict[str, "Link"] = {}
        #: Static destination-based next-hop table: dst name -> neighbor name.
        self.routes: Dict[str, str] = {}
        #: Local transport agents keyed by flow id.
        self.agents: Dict[int, Agent] = {}
        #: Optional per-packet multipath policy used for locally injected packets.
        self.path_policy: Optional[PathPolicy] = None
        #: Packets that arrived with no viable route or local agent.
        self.dead_letters = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _register_link(self, link: "Link") -> None:
        if link.dst.name in self.links:
            raise SimulationError(
                f"node {self.name} already has a link to {link.dst.name}"
            )
        self.links[link.dst.name] = link

    def add_route(self, dst: str, next_hop: str) -> None:
        """Install a static route: packets for ``dst`` leave via ``next_hop``."""
        if next_hop not in self.links:
            raise SimulationError(
                f"node {self.name} has no link to next hop {next_hop}"
            )
        self.routes[dst] = next_hop

    def register_agent(self, flow_id: int, agent: Agent) -> None:
        if flow_id in self.agents:
            raise SimulationError(
                f"node {self.name} already has an agent for flow {flow_id}"
            )
        self.agents[flow_id] = agent

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a locally generated packet (applies the path policy)."""
        if self.path_policy is not None and packet.route is None:
            route = self.path_policy.choose_route(packet)
            if route is not None:
                if route[0] != self.name:
                    raise SimulationError(
                        f"path policy on {self.name} returned a route starting "
                        f"at {route[0]!r}"
                    )
                packet.route = route
                packet.route_index = 0
        self._forward(packet)

    def receive(self, packet: Packet) -> None:
        """Handle a packet delivered by an upstream link."""
        if packet.route is not None:
            packet.route_index += 1
            if packet.dst == self.name:
                agent = self.agents.get(packet.flow_id)
                if agent is None:
                    self.dead_letters += 1
                    return
                agent.receive(packet)
                return
            self._forward(packet)
            return
        # Table-forwarded packet: _forward/_next_hop inlined — this is
        # the per-packet per-hop path, and ``links.get(None)`` correctly
        # yields None when no route exists.
        if packet.dst == self.name:
            agent = self.agents.get(packet.flow_id)
            if agent is None:
                self.dead_letters += 1
                return
            agent.receive(packet)
            return
        link = self.links.get(self.routes.get(packet.dst))
        if link is None:
            self.dead_letters += 1
            return
        link.enqueue(packet)

    def _forward(self, packet: Packet) -> None:
        next_hop = self._next_hop(packet)
        if next_hop is None:
            self.dead_letters += 1
            return
        link = self.links.get(next_hop)
        if link is None:
            self.dead_letters += 1
            return
        link.enqueue(packet)

    def _next_hop(self, packet: Packet) -> Optional[str]:
        if packet.route is not None:
            index = packet.route_index
            if index + 1 < len(packet.route) and packet.route[index] == self.name:
                return packet.route[index + 1]
            # Fall back to the table if the source route is broken (e.g.
            # after a route flap rewired the topology mid-flight).
        return self.routes.get(packet.dst)

    def __repr__(self) -> str:
        return (
            f"<Node {self.name} links={sorted(self.links)} "
            f"agents={sorted(self.agents)}>"
        )
