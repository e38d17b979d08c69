"""Unit tests for shortest-path routing and route flapping."""

import pytest

from repro.net.network import Network
from repro.net.packet import Packet
from repro.routing.flap import RouteFlapper
from repro.routing.multipath import discover_paths
from repro.routing.shortest_path import (
    install_shortest_path_routes,
    shortest_path,
)
from repro.sim.errors import SimulationError


def _diamond():
    """s -> {a | b,c} -> d : a 2-hop fast path and a 3-hop slow path."""
    net = Network(seed=1)
    net.add_nodes("s", "a", "b", "c", "d")
    for u, v in (("s", "a"), ("a", "d"), ("s", "b"), ("b", "c"), ("c", "d")):
        net.add_duplex_link(u, v, bandwidth=1e7, delay=0.01)
    return net


def test_shortest_path_returns_fewest_delay_route():
    net = _diamond()
    assert shortest_path(net, "s", "d") == ["s", "a", "d"]


def test_install_routes_covers_all_destinations():
    net = _diamond()
    install_shortest_path_routes(net)
    for node in net.nodes.values():
        for dst in net.nodes:
            if dst != node.name:
                assert dst in node.routes, f"{node.name} missing route to {dst}"


def test_routes_forward_correctly():
    net = _diamond()
    install_shortest_path_routes(net)
    arrivals = []

    class Sink:
        def receive(self, packet):
            arrivals.append(packet)

    net.node("d").agents[1] = Sink()
    net.sim.schedule(
        0.0, lambda: net.node("s").send(Packet("data", "s", "d", flow_id=1))
    )
    net.run(until=1.0)
    assert len(arrivals) == 1
    assert arrivals[0].hops == 2  # took the short path


# ----------------------------------------------------------------------
# Failures are SimulationError: no foreign exception type leaves routing
# ----------------------------------------------------------------------
def test_shortest_path_unknown_node_is_a_simulation_error():
    net = _diamond()
    with pytest.raises(SimulationError, match="no path from 's' to 'nowhere'"):
        shortest_path(net, "s", "nowhere")
    with pytest.raises(SimulationError, match="unknown node 'nowhere'"):
        shortest_path(net, "nowhere", "s")


def test_shortest_path_disconnected_pair_is_a_simulation_error():
    net = _diamond()
    net.add_node("island")
    with pytest.raises(SimulationError, match="no path from 's' to 'island'"):
        shortest_path(net, "s", "island")


def test_discover_paths_disconnected_pair_keeps_its_message():
    net = _diamond()
    net.add_node("island")
    with pytest.raises(SimulationError, match="no path from 's' to 'island'"):
        discover_paths(net, "s", "island")


def test_isolated_node_gets_an_empty_table_and_no_error():
    net = _diamond()
    net.add_node("island")
    install_shortest_path_routes(net)
    assert net.node("island").routes == {}
    assert all("island" not in node.routes for node in net.nodes.values())


# ----------------------------------------------------------------------
# Route flapping
# ----------------------------------------------------------------------
def test_flapper_requires_two_paths():
    net = Network(seed=1)
    net.add_nodes("s", "d")
    net.add_duplex_link("s", "d", bandwidth=1e7, delay=0.01)
    with pytest.raises(ValueError):
        RouteFlapper(net, "s", "d", period=0.1)


def test_flapper_validates_parameters():
    net = _diamond()
    with pytest.raises(ValueError):
        RouteFlapper(net, "s", "d", period=0.0)
    with pytest.raises(ValueError):
        RouteFlapper(net, "s", "d", period=1.0, jitter=1.5)


def test_flapper_cycles_paths():
    net = _diamond()
    flapper = RouteFlapper(net, "s", "d", period=0.1).install()
    first = tuple(flapper.active_path)
    net.run(until=0.15)
    assert tuple(flapper.active_path) != first
    assert flapper.flaps == 1
    net.run(until=0.25)
    assert tuple(flapper.active_path) == first  # round-robin wraps
    assert flapper.flaps == 2


def test_flapper_routes_change_packet_paths():
    net = _diamond()
    install_shortest_path_routes(net)
    RouteFlapper(net, "s", "d", period=0.05).install()
    arrivals = []

    class Sink:
        def receive(self, packet):
            arrivals.append(packet)

    net.node("d").agents[1] = Sink()

    def send_periodically(i=0):
        if i < 20:
            net.node("s").send(Packet("data", "s", "d", flow_id=1, seq=i))
            net.sim.schedule_in(0.02, lambda: send_periodically(i + 1))

    net.sim.schedule(0.0, send_periodically)
    net.run(until=2.0)
    hop_counts = {p.hops for p in arrivals}
    assert hop_counts == {2, 3}, "both paths must have been used"


def test_flapper_random_mode_changes_path():
    net = _diamond()
    flapper = RouteFlapper(net, "s", "d", period=0.05, randomize=True)
    before = flapper._active
    net.run(until=1.0)
    assert flapper.flaps >= 15
    # Random mode never picks the same path twice in a row, so after any
    # flap the path differs from its predecessor; just sanity-check state.
    assert 0 <= flapper._active < 2


def test_flapper_ignores_other_destinations():
    net = _diamond()
    flapper = RouteFlapper(net, "s", "d", period=0.1)
    assert flapper.choose_route(Packet("data", "s", "c", flow_id=1)) is None
