"""Single-path (shortest-path) routing.

Thin wrappers around :func:`repro.net.network.dijkstra`; these produce
the classic destination-based forwarding tables used by every experiment
that does not involve multipath routing.
"""

from __future__ import annotations

from typing import List

from repro.net.network import Network, dijkstra, install_static_routes
from repro.sim.errors import SimulationError


def install_shortest_path_routes(network: Network) -> None:
    """Install delay-shortest next-hop tables on every node."""
    install_static_routes(network)


def shortest_path(network: Network, src: str, dst: str) -> List[str]:
    """The delay-shortest path between two nodes as a list of node names."""
    path = dijkstra(network.adjacency(), src, dst).get(dst)
    if path is None:
        raise SimulationError(f"no path from {src!r} to {dst!r}")
    return path
