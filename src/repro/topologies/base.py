"""The :class:`TopologySpec` protocol: one way to build every network.

Every topology is built through a single protocol, so no consumer
hard-codes the node names and bottleneck links a shape happens to
create:

* a *spec* is a plain dataclass of JSON scalars describing the shape
  (so it can cross process boundaries and live inside a
  :class:`~repro.scenarios.spec.ScenarioSpec`);
* ``spec.build(sim)`` constructs the network and returns a
  :class:`Topology` — the network plus *named handles*: which nodes are
  senders/receivers and which links are the engineered bottlenecks;
* ``spec.endpoints()`` answers the same sender/receiver question
  *without* building anything (the workload generator draws endpoints
  for millions of flows and must not pay for a network per query);
* a ``kind`` registry round-trips any spec through JSON
  (:func:`topology_to_jsonable` / :func:`topology_from_jsonable`).

Figure experiments and the scale-out scenario generator both construct
networks through this protocol; see ``docs/SCENARIOS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    Type,
    cast,
    runtime_checkable,
)

from repro.net.link import Link
from repro.net.network import Network
from repro.sim import Simulator


@dataclass
class Topology:
    """A built network plus the named handles consumers need.

    Attributes:
        network: The constructed :class:`~repro.net.network.Network`
            (routes installed, ready for agents).
        kind: The spec's registry kind (``"dumbbell"``, ``"fat-tree"``...).
        senders: Node names intended as traffic sources.
        receivers: Node names intended as traffic sinks.
        bottlenecks: ``"src->dst"`` names of the engineered bottleneck
            links (empty when the shape has no designated bottleneck).
    """

    network: Network
    kind: str
    senders: Tuple[str, ...]
    receivers: Tuple[str, ...]
    bottlenecks: Tuple[str, ...] = ()

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    def bottleneck_links(self) -> List[Link]:
        """Resolve :attr:`bottlenecks` to :class:`Link` objects."""
        links: List[Link] = []
        for name in self.bottlenecks:
            src, _, dst = name.partition("->")
            links.append(self.network.link(src, dst))
        return links


@runtime_checkable
class TopologySpec(Protocol):
    """Protocol every topology spec implements.

    A conforming spec is a dataclass of JSON scalars with a class-level
    ``kind`` (its registry name) and a ``seed`` field (the simulator
    master seed; any internal randomness — delay jitter, chord
    placement — derives from it via
    :class:`~repro.sim.rng.RngRegistry` streams).
    """

    kind: ClassVar[str]
    seed: int

    def build(self, sim: Optional[Simulator] = None) -> Topology:
        """Construct the network (on ``sim`` if given) with routes installed."""
        ...

    def endpoints(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """``(senders, receivers)`` node names, computed without building."""
        ...


# ----------------------------------------------------------------------
# Kind registry / JSON round-tripping
# ----------------------------------------------------------------------

_TOPOLOGY_KINDS: Dict[str, Type[Any]] = {}


def register_topology(cls: Type[Any]) -> Type[Any]:
    """Class decorator: register a spec class under its ``kind``."""
    kind = cls.kind
    existing = _TOPOLOGY_KINDS.get(kind)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"topology kind {kind!r} already registered by {existing.__name__}"
        )
    _TOPOLOGY_KINDS[kind] = cls
    return cls


def topology_kinds() -> Tuple[str, ...]:
    """The registered kinds, sorted."""
    return tuple(sorted(_TOPOLOGY_KINDS))


def topology_class(kind: str) -> Type[Any]:
    """The spec class registered under ``kind``."""
    try:
        return _TOPOLOGY_KINDS[kind]
    except KeyError:
        known = ", ".join(topology_kinds()) or "none"
        raise ValueError(
            f"unknown topology kind {kind!r} (known: {known})"
        ) from None


def topology_to_jsonable(spec: TopologySpec) -> Dict[str, Any]:
    """A spec as a flat JSON object: ``{"kind": ..., <fields>}``."""
    if not is_dataclass(spec):
        raise TypeError(f"topology spec must be a dataclass, got {spec!r}")
    payload: Dict[str, Any] = {"kind": spec.kind}
    for field_info in fields(spec):
        payload[field_info.name] = getattr(spec, field_info.name)
    return payload


def topology_from_jsonable(data: Dict[str, Any]) -> TopologySpec:
    """Rebuild a spec from its :func:`topology_to_jsonable` form."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    if not isinstance(kind, str):
        raise ValueError(f"topology payload needs a string 'kind': {data!r}")
    cls = topology_class(kind)
    return cast(TopologySpec, cls(**payload))


def topology_with_seed(spec: TopologySpec, seed: int) -> TopologySpec:
    """A copy of ``spec`` with its ``seed`` field replaced."""
    return cast(TopologySpec, replace(cast(Any, spec), seed=seed))
