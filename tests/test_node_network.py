"""Unit tests for nodes, forwarding, and the Network container."""

import pytest

from repro.net.network import Network, install_static_routes
from repro.net.node import Agent
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.errors import SimulationError


class RecordingAgent(Agent):
    def __init__(self, sim, node, flow_id):
        super().__init__(sim, node, flow_id)
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def _line_network():
    """a - b - c with static routes installed."""
    net = Network(seed=0)
    net.add_nodes("a", "b", "c")
    net.add_duplex_link("a", "b", bandwidth=1e7, delay=0.001)
    net.add_duplex_link("b", "c", bandwidth=1e7, delay=0.001)
    install_static_routes(net)
    return net


def test_multi_hop_forwarding():
    net = _line_network()
    agent = RecordingAgent(net.sim, net.node("c"), 1)
    packet = Packet("data", "a", "c", flow_id=1, seq=0)
    net.sim.schedule(0.0, lambda: net.node("a").send(packet))
    net.run(until=1.0)
    assert [p.seq for p in agent.packets] == [0]
    assert agent.packets[0].hops == 2


def test_local_delivery_by_flow_id():
    net = _line_network()
    agent1 = RecordingAgent(net.sim, net.node("c"), 1)
    agent2 = RecordingAgent(net.sim, net.node("c"), 2)
    for flow in (1, 2, 2):
        packet = Packet("data", "a", "c", flow_id=flow)
        net.sim.schedule(0.0, (lambda p: lambda: net.node("a").send(p))(packet))
    net.run(until=1.0)
    assert len(agent1.packets) == 1
    assert len(agent2.packets) == 2


def test_dead_letter_on_missing_agent():
    net = _line_network()
    packet = Packet("data", "a", "c", flow_id=99)
    net.sim.schedule(0.0, lambda: net.node("a").send(packet))
    net.run(until=1.0)
    assert net.node("c").dead_letters == 1
    assert net.dead_letters() == 1


def test_dead_letter_on_missing_route():
    net = Network(seed=0)
    net.add_nodes("a", "b")
    net.add_duplex_link("a", "b", bandwidth=1e6, delay=0.001)
    # No routes installed: sending to an unknown destination dead-letters.
    packet = Packet("data", "a", "zzz", flow_id=1)
    net.sim.schedule(0.0, lambda: net.node("a").send(packet))
    net.run(until=1.0)
    assert net.node("a").dead_letters == 1


def test_source_route_forwarding():
    net = Network(seed=0)
    net.add_nodes("a", "b", "c", "d")
    net.add_duplex_link("a", "b", bandwidth=1e7, delay=0.001)
    net.add_duplex_link("b", "d", bandwidth=1e7, delay=0.001)
    net.add_duplex_link("a", "c", bandwidth=1e7, delay=0.001)
    net.add_duplex_link("c", "d", bandwidth=1e7, delay=0.001)
    agent = RecordingAgent(net.sim, net.node("d"), 1)
    # No static routes at all: the source route is the only guidance.
    packet = Packet("data", "a", "d", flow_id=1)
    packet.route = ["a", "c", "d"]
    net.sim.schedule(0.0, lambda: net.node("a").send(packet))
    net.run(until=1.0)
    assert len(agent.packets) == 1
    assert net.link("a", "c").tx_packets == 1
    assert net.link("a", "b").tx_packets == 0


def test_duplicate_node_name_rejected():
    net = Network()
    net.add_node("a")
    with pytest.raises(SimulationError):
        net.add_node("a")


def test_unknown_node_lookup_raises():
    net = Network()
    with pytest.raises(SimulationError):
        net.node("missing")
    with pytest.raises(SimulationError):
        net.link("x", "y")


def test_duplicate_agent_rejected():
    net = Network()
    net.add_node("a")
    RecordingAgent(net.sim, net.node("a"), 1)
    with pytest.raises(SimulationError):
        RecordingAgent(net.sim, net.node("a"), 1)


def test_add_route_requires_existing_link():
    net = Network()
    net.add_nodes("a", "b")
    with pytest.raises(SimulationError):
        net.node("a").add_route("b", "b")


def test_duplex_rejects_shared_queue_instance():
    net = Network()
    net.add_nodes("a", "b")
    with pytest.raises(SimulationError):
        net.add_duplex_link("a", "b", 1e6, 0.001, queue=DropTailQueue(5))


def test_graph_carries_link_attributes():
    net = _line_network()
    adjacency = net.adjacency()
    assert sum(len(neighbours) for neighbours in adjacency.values()) == 4
    assert adjacency["a"]["b"].delay == pytest.approx(0.001)
    assert adjacency["a"]["b"].bandwidth == pytest.approx(1e7)


def test_install_static_routes_prefers_low_delay():
    net = Network(seed=0)
    net.add_nodes("a", "b", "c")
    net.add_duplex_link("a", "c", bandwidth=1e6, delay=0.500)  # slow direct
    net.add_duplex_link("a", "b", bandwidth=1e6, delay=0.001)
    net.add_duplex_link("b", "c", bandwidth=1e6, delay=0.001)
    install_static_routes(net)
    assert net.node("a").routes["c"] == "b"


def test_add_duplex_chain():
    net = Network(seed=0)
    pairs = net.add_duplex_chain(["a", "b", "c", "d"], bandwidth=1e6, delay=0.01)
    assert len(pairs) == 3
    assert set(net.nodes) == {"a", "b", "c", "d"}
    assert net.link("b", "c").bandwidth == 1e6
    assert net.link("c", "b").delay == 0.01


def test_add_duplex_chain_requires_two_nodes():
    net = Network(seed=0)
    with pytest.raises(SimulationError):
        net.add_duplex_chain(["solo"], bandwidth=1e6, delay=0.01)


def test_total_drops_aggregates_links():
    net = Network(seed=0)
    net.add_nodes("a", "b")
    link = net.add_link("a", "b", bandwidth=1e3, delay=0.001, queue=1)

    def burst():
        for i in range(5):
            link.enqueue(Packet("data", "a", "b", flow_id=1, seq=i))

    net.sim.schedule(0.0, burst)
    net.run(until=0.001)
    assert net.total_drops() == link.queue.drops > 0
