"""The ε-parameterized per-packet multipath routing family (Section 5).

The paper routes packets of a single flow over multiple paths, choosing
paths randomly per packet.  A single parameter ε controls how strongly
path delay is penalized:

* ε = 0  — delay not penalized at all: *all independent paths from source
  to destination are used with equal probability* (full multipath);
* ε = 500 (≈ ∞) — delay heavily penalized: shortest-path routing;
* intermediate ε — a compromise.

The exact strategy construction lives in the paper's external references
[12, 6] (routing-game saddle policies).  We reproduce the stated limiting
behaviour with a softmin distribution over node-disjoint paths:

    P(path p) ∝ exp(−ε · (cost(p) − min_cost) / min_cost)

where cost(p) is the end-to-end propagation delay of p.  The min-cost
normalization makes ε dimensionless, so the same ε values the paper
sweeps (0, 1, 4, 10, 500) produce the same qualitative regimes regardless
of whether links have 10 ms or 60 ms delay.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.link import Link
from repro.net.network import Network, dijkstra
from repro.net.packet import Packet
from repro.sim.errors import SimulationError

Path = Tuple[str, ...]


class PathSet:
    """An ordered set of candidate paths with their delay costs."""

    def __init__(self, paths: Sequence[Sequence[str]], costs: Sequence[float]) -> None:
        if len(paths) != len(costs):
            raise ValueError("paths and costs must have equal length")
        if not paths:
            raise ValueError("PathSet requires at least one path")
        order = sorted(range(len(paths)), key=lambda i: (costs[i], tuple(paths[i])))
        self.paths: List[Path] = [tuple(paths[i]) for i in order]
        self.costs: List[float] = [float(costs[i]) for i in order]

    @property
    def min_cost(self) -> float:
        return self.costs[0]

    def __len__(self) -> int:
        return len(self.paths)

    def __repr__(self) -> str:
        return f"<PathSet n={len(self.paths)} costs={self.costs}>"


def discover_paths(
    network: Network, src: str, dst: str, max_paths: Optional[int] = None
) -> PathSet:
    """Find node-disjoint paths from ``src`` to ``dst`` with delay costs.

    Uses a greedy peel: repeatedly take the current delay-shortest path,
    then remove its interior nodes, until the graph disconnects.  This
    yields the maximal set of node-disjoint paths ordered by delay, which
    is what "all independent paths from source to destination" refers to
    in the paper.
    """
    adjacency = network.adjacency()
    paths: List[List[str]] = []
    costs: List[float] = []
    while True:
        if max_paths is not None and len(paths) >= max_paths:
            break
        path = dijkstra(adjacency, src, dst).get(dst)
        if path is None:
            break
        cost = _path_delay(adjacency, path)
        paths.append(path)
        costs.append(cost)
        interior = path[1:-1]
        if not interior:  # direct link: remove the edge itself
            del adjacency[src][dst]
        for name in interior:
            del adjacency[name]
            for neighbours in adjacency.values():
                neighbours.pop(name, None)
    if not paths:
        raise SimulationError(f"no path from {src!r} to {dst!r}")
    return PathSet(paths, costs)


def _path_delay(adjacency: Dict[str, Dict[str, Link]], path: Sequence[str]) -> float:
    return sum(
        adjacency[path[i]][path[i + 1]].delay for i in range(len(path) - 1)
    )


def epsilon_weights(costs: Sequence[float], epsilon: float) -> List[float]:
    """Softmin path probabilities for a given ε (normalized to sum to 1).

    ε = 0 gives the uniform distribution; large ε concentrates all mass on
    the minimum-cost path(s).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    min_cost = min(costs)
    scale = min_cost if min_cost > 0 else 1.0
    logits = [-epsilon * (cost - min_cost) / scale for cost in costs]
    peak = max(logits)
    raw = [math.exp(logit - peak) for logit in logits]
    total = sum(raw)
    return [value / total for value in raw]


class EpsilonMultipathPolicy:
    """Per-packet source-routing policy implementing the ε family.

    Install on an origin node via :meth:`install`; every packet the node
    injects toward a known destination gets a source route sampled from the
    softmin distribution.  Reverse-path policies can be installed on the
    destination as well, so ACKs also experience reordering (the paper's
    reordering affects both data and ACK packets).

    Attributes:
        epsilon: Delay-penalty parameter.
        path_counts: How many packets each path carried (diagnostics).
    """

    def __init__(
        self,
        network: Network,
        origin: str,
        epsilon: float,
        destinations: Optional[Sequence[str]] = None,
        max_paths: Optional[int] = None,
        rng_name: Optional[str] = None,
    ) -> None:
        self.network = network
        self.origin = origin
        self.epsilon = epsilon
        self._rng = network.sim.rng.stream(
            rng_name if rng_name is not None else f"multipath:{origin}:{epsilon}"
        )
        self._path_sets: Dict[str, PathSet] = {}
        self._weights: Dict[str, List[float]] = {}
        self._cumulative: Dict[str, List[float]] = {}
        #: Sample position -> path index (identity until paths are disabled).
        self._choices: Dict[str, List[int]] = {}
        self._disabled: Dict[str, set] = {}
        self.path_counts: Dict[str, List[int]] = {}
        if destinations:
            for destination in destinations:
                self.add_destination(destination, max_paths=max_paths)

    def add_destination(self, dst: str, max_paths: Optional[int] = None) -> PathSet:
        """Precompute disjoint paths and sampling weights toward ``dst``."""
        path_set = discover_paths(self.network, self.origin, dst, max_paths=max_paths)
        self._path_sets[dst] = path_set
        self._weights[dst] = epsilon_weights(path_set.costs, self.epsilon)
        self._disabled[dst] = set()
        self.path_counts[dst] = [0] * len(path_set)
        self._rebuild(dst)
        return path_set

    def _rebuild(self, dst: str) -> None:
        """Recompute the sampling distribution over the enabled paths."""
        weights = self._weights[dst]
        choices = [
            index for index in range(len(weights))
            if index not in self._disabled[dst]
        ]
        if not choices:
            raise SimulationError(
                f"every path {self.origin}->{dst} is disabled (blackout "
                "schedules must leave at least one path usable)"
            )
        total = sum(weights[index] for index in choices)
        cumulative: List[float] = []
        running = 0.0
        for index in choices:
            running += weights[index] / total
            cumulative.append(running)
        cumulative[-1] = 1.0  # guard against float round-off
        self._choices[dst] = choices
        self._cumulative[dst] = cumulative

    # -- Fault hooks (repro.faults.PathBlackout) ------------------------
    def disable_path(self, dst: str, index: int) -> None:
        """Blackout path ``index`` toward ``dst``: reroute its traffic.

        Remaining probability mass is renormalized over the surviving
        paths, so an ε = 0 policy stays uniform over what is left.
        """
        self._check_path(dst, index)
        self._disabled[dst].add(index)
        self._rebuild(dst)

    def enable_path(self, dst: str, index: int) -> None:
        """End the blackout of path ``index`` toward ``dst``."""
        self._check_path(dst, index)
        self._disabled[dst].discard(index)
        self._rebuild(dst)

    def disabled_paths(self, dst: str) -> List[int]:
        return sorted(self._disabled[dst])

    def _check_path(self, dst: str, index: int) -> None:
        if dst not in self._path_sets:
            raise SimulationError(
                f"policy on {self.origin!r} has no destination {dst!r}"
            )
        if not 0 <= index < len(self._path_sets[dst]):
            raise SimulationError(
                f"path index {index} out of range for {self.origin}->{dst} "
                f"({len(self._path_sets[dst])} paths)"
            )

    def weights_for(self, dst: str) -> List[float]:
        return list(self._weights[dst])

    def paths_for(self, dst: str) -> PathSet:
        return self._path_sets[dst]

    # -- PathPolicy protocol -------------------------------------------
    def choose_route(self, packet: Packet) -> Optional[List[str]]:
        cumulative = self._cumulative.get(packet.dst)
        if cumulative is None:
            return None
        draw = self._rng.random()
        index = self._choices[packet.dst][_bisect(cumulative, draw)]
        self.path_counts[packet.dst][index] += 1
        return list(self._path_sets[packet.dst].paths[index])

    def install(self) -> "EpsilonMultipathPolicy":
        """Attach this policy to the origin node and return self."""
        self.network.node(self.origin).path_policy = self
        return self


class FlowHashPolicy:
    """Per-*flow* multipath (ECMP-style hashing) — the no-reordering way.

    Real networks spread load over parallel paths without reordering TCP
    by hashing the flow identifier, so every packet of one flow takes the
    same path.  This policy is the counterpoint to
    :class:`EpsilonMultipathPolicy`: same path diversity, no per-packet
    randomness — a single flow gets exactly one path's bandwidth, but
    standard TCP works untouched.
    """

    def __init__(
        self,
        network: Network,
        origin: str,
        destinations: Optional[Sequence[str]] = None,
        max_paths: Optional[int] = None,
        salt: int = 0,
    ) -> None:
        self.network = network
        self.origin = origin
        self.salt = salt
        self._path_sets: Dict[str, PathSet] = {}
        if destinations:
            for destination in destinations:
                self.add_destination(destination, max_paths=max_paths)

    def add_destination(self, dst: str, max_paths: Optional[int] = None) -> PathSet:
        path_set = discover_paths(self.network, self.origin, dst, max_paths=max_paths)
        self._path_sets[dst] = path_set
        return path_set

    def path_for_flow(self, dst: str, flow_id: int) -> Path:
        path_set = self._path_sets[dst]
        # Knuth multiplicative hash: stable, spreads consecutive ids.
        index = ((flow_id + self.salt) * 2654435761) % 2**32 % len(path_set)
        return path_set.paths[index]

    # -- PathPolicy protocol -------------------------------------------
    def choose_route(self, packet: Packet) -> Optional[List[str]]:
        if packet.dst not in self._path_sets:
            return None
        return list(self.path_for_flow(packet.dst, packet.flow_id))

    def install(self) -> "FlowHashPolicy":
        self.network.node(self.origin).path_policy = self
        return self


def _bisect(cumulative: Sequence[float], value: float) -> int:
    low, high = 0, len(cumulative) - 1
    while low < high:
        mid = (low + high) // 2
        if cumulative[mid] < value:
            low = mid + 1
        else:
            high = mid
    return low
