"""Differential test: ``repro.net.network.dijkstra`` against networkx.

Runs only where networkx is installed (it is a ``[test]`` extra, not a
runtime dependency).  Random digraphs draw their delays from three
values, so equal-cost ties are the norm rather than the exception, and
links are inserted in a random order, which is what breaks the ties.
The committed counterpart that needs no networkx is
``test_routing_golden.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.network import Network, dijkstra, install_static_routes
from repro.routing.multipath import discover_paths
from repro.sim.errors import SimulationError

nx = pytest.importorskip("networkx")

DELAYS = (0.001, 0.002, 0.003)


@st.composite
def networks(draw):
    names = [f"n{i}" for i in range(draw(st.integers(2, 8)))]
    pairs = [(u, v) for u in names for v in names if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    net = Network(seed=0)
    net.add_nodes(*names)
    for src, dst in edges:
        net.add_link(src, dst, bandwidth=1e6, delay=draw(st.sampled_from(DELAYS)))
    return net


def _nx_graph(net):
    """The digraph the networkx-era ``Network.graph()`` built."""
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    for (src, dst), link in net.links.items():
        graph.add_edge(src, dst, delay=link.delay)
    return graph


def _nx_peel(graph, src, dst):
    """The networkx-era greedy peel of ``discover_paths``, verbatim."""
    found = []
    while True:
        try:
            path = nx.dijkstra_path(graph, src, dst, weight="delay")
        except nx.NetworkXNoPath:
            return found
        cost = sum(graph.edges[u, v]["delay"] for u, v in zip(path, path[1:]))
        found.append((cost, tuple(path)))
        if len(path) == 2:
            graph.remove_edge(src, dst)
        else:
            graph.remove_nodes_from(path[1:-1])


@settings(deadline=None, max_examples=80)
@given(networks())
def test_paths_settle_order_and_next_hops_match_networkx(net):
    graph, adjacency = _nx_graph(net), net.adjacency()
    install_static_routes(net)
    for src, node in net.nodes.items():
        expected = nx.single_source_dijkstra_path(graph, src, weight="delay")
        # Item lists, not dicts: the order nodes settle in is compared too.
        assert list(dijkstra(adjacency, src).items()) == list(expected.items())
        assert list(node.routes.items()) == [
            (dst, path[1]) for dst, path in expected.items() if dst != src
        ]


@settings(deadline=None, max_examples=80)
@given(networks())
def test_targeted_search_and_peel_match_networkx(net):
    adjacency = net.adjacency()
    for src in net.nodes:
        for dst in net.nodes:
            if src == dst:
                continue
            expected = _nx_peel(_nx_graph(net), src, dst)
            first = dijkstra(adjacency, src, dst).get(dst)
            if not expected:
                assert first is None
                with pytest.raises(SimulationError, match="no path from"):
                    discover_paths(net, src, dst)
                continue
            assert tuple(first) == expected[0][1]
            path_set = discover_paths(net, src, dst)
            assert list(zip(path_set.costs, path_set.paths)) == sorted(expected)
