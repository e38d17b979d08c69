"""The :class:`Network` container: nodes + links + topology helpers.

Wraps a :class:`~repro.sim.Simulator` with named-node bookkeeping and
duplex link creation, and holds the one shortest-path routine of the
tree: :func:`dijkstra` over :meth:`Network.adjacency`, used here by
:func:`install_static_routes` and by :mod:`repro.routing`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.net.delays import DelayModel
from repro.net.link import Link
from repro.net.lossgen import LossModel
from repro.net.node import Node
from repro.net.queues import Queue
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError


class Network:
    """A simulated network: a simulator, named nodes, and links.

    Example:
        >>> net = Network(seed=1)
        >>> a, b = net.add_nodes("a", "b")
        >>> net.add_duplex_link("a", "b", bandwidth=10e6, delay=0.010)
        (<Link a->b ...>, <Link b->a ...>)
    """

    def __init__(self, seed: int = 0, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> Node:
        if name in self.nodes:
            raise SimulationError(f"duplicate node name {name!r}")
        node = Node(self.sim, name)
        self.nodes[name] = node
        return node

    def add_nodes(self, *names: str) -> Tuple[Node, ...]:
        return tuple(self.add_node(name) for name in names)

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth: float,
        delay: float,
        queue: "int | Queue" = 100,
        loss_model: Optional[LossModel] = None,
        delay_model: Optional[DelayModel] = None,
    ) -> Link:
        """Add a unidirectional link ``src -> dst``."""
        key = (src, dst)
        if key in self.links:
            raise SimulationError(f"duplicate link {src}->{dst}")
        link = Link(
            self.sim,
            self.node(src),
            self.node(dst),
            bandwidth=bandwidth,
            delay=delay,
            queue=queue,
            loss_model=loss_model,
            delay_model=delay_model,
        )
        self.links[key] = link
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        bandwidth: float,
        delay: float,
        queue: "int | Queue" = 100,
        reverse_queue: "int | Queue | None" = None,
        loss_model: Optional[LossModel] = None,
        reverse_loss_model: Optional[LossModel] = None,
        delay_model: Optional[DelayModel] = None,
        reverse_delay_model: Optional[DelayModel] = None,
    ) -> Tuple[Link, Link]:
        """Add both directions of a symmetric link (separate queues).

        Note: passing a Queue *instance* for both directions would share
        state, so ``queue`` accepts an int capacity when duplex; each
        direction gets its own DropTail queue of that capacity unless
        explicit Queue instances are supplied per direction.
        """
        if reverse_queue is None:
            if isinstance(queue, Queue):
                raise SimulationError(
                    "duplex links need distinct queues per direction; pass an "
                    "int capacity or supply reverse_queue explicitly"
                )
            reverse_queue = queue
        forward = self.add_link(
            a, b, bandwidth, delay, queue, loss_model, delay_model
        )
        backward = self.add_link(
            b, a, bandwidth, delay, reverse_queue, reverse_loss_model,
            reverse_delay_model,
        )
        return forward, backward

    def add_duplex_chain(
        self,
        names: "Sequence[str]",
        bandwidth: float,
        delay: float,
        queue: "int" = 100,
    ) -> list[Tuple[Link, Link]]:
        """Connect consecutive nodes with identical duplex links.

        Nodes that do not exist yet are created.  Returns the created
        (forward, backward) link pairs in order.
        """
        if len(names) < 2:
            raise SimulationError("a chain needs at least two nodes")
        pairs = []
        for name in names:
            if name not in self.nodes:
                self.add_node(name)
        for left, right in zip(names, names[1:]):
            pairs.append(
                self.add_duplex_link(left, right, bandwidth, delay, queue)
            )
        return pairs

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[str, Dict[str, Link]]:
        """The topology as ``{src: {dst: Link}}``, a fresh copy per call.

        Every node has an entry (isolated ones an empty one) and each
        node's neighbours are in link-insertion order, which is what
        :func:`dijkstra` breaks equal-cost ties by.
        """
        adjacency: Dict[str, Dict[str, Link]] = {name: {} for name in self.nodes}
        for (src, dst), link in self.links.items():
            adjacency[src][dst] = link
        return adjacency

    def link(self, src: str, dst: str) -> Link:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise SimulationError(f"unknown link {src}->{dst}") from None

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def total_drops(self) -> int:
        return sum(link.total_drops for link in self.links.values())

    def dead_letters(self) -> int:
        return sum(node.dead_letters for node in self.nodes.values())

    def run(
        self,
        until: float,
        max_events: Optional[int] = None,
        deadline: Optional[float] = None,
        livelock_threshold: Optional[int] = None,
    ) -> None:
        """Run the simulation until ``until`` seconds.

        ``deadline`` (wall-clock seconds) and ``livelock_threshold``
        (events without clock progress) arm the simulator's watchdog —
        see :meth:`repro.sim.engine.Simulator.run`.
        """
        self.sim.run(
            until=until,
            max_events=max_events,
            deadline=deadline,
            livelock_threshold=livelock_threshold,
        )

    def __repr__(self) -> str:
        return f"<Network nodes={len(self.nodes)} links={len(self.links)}>"


def dijkstra(
    adjacency: Mapping[str, Mapping[str, Link]],
    src: str,
    target: Optional[str] = None,
) -> Dict[str, List[str]]:
    """Delay-shortest paths from ``src``, keyed by node in settle order.

    With ``target`` the search stops as soon as that node is settled, so
    ``target`` is in the result exactly when it is reachable.

    Equal-cost ties decide which path a flow takes, so the order is part
    of the contract (pinned by ``tests/golden/routing_tables.json``):
    heap entries are ``(distance, push counter, node, path to it)``, a
    node is re-queued only for a strictly smaller distance, settled
    nodes are skipped, and neighbours are visited in link-insertion order.
    """
    if src not in adjacency:
        raise SimulationError(f"unknown node {src!r}")
    paths: Dict[str, List[str]] = {}
    best = {src: 0.0}
    fringe: List[Tuple[float, int, str, List[str]]] = [(0.0, 0, src, [src])]
    pushes = 1
    while fringe:
        distance, _, name, path = heappop(fringe)
        if name in paths:
            continue
        paths[name] = path
        if name == target:
            break
        for neighbour, link in adjacency[name].items():
            if neighbour in paths:
                continue
            reached = distance + link.delay
            if neighbour not in best or reached < best[neighbour]:
                best[neighbour] = reached
                heappush(fringe, (reached, pushes, neighbour, path + [neighbour]))
                pushes += 1
    return paths


def install_static_routes(network: Network) -> None:
    """Populate every node's table with delay-shortest next hops.

    Propagation delay is the one cost (equal-delay topologies degenerate
    to hop count); an isolated node ends with an empty table.
    """
    adjacency = network.adjacency()
    for name, node in network.nodes.items():
        for dst, path in dijkstra(adjacency, name).items():
            if len(path) > 1:
                node.routes[dst] = path[1]


def iter_links(network: Network) -> Iterable[Link]:
    return network.links.values()
