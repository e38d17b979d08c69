"""Packet event tracing: the emit side of the ``repro.traces`` pipeline.

A :class:`PacketTracer` hooks a node's send path, a node's receive path,
and a link's drop listeners to record per-packet events, ns-2-trace
style.  Every event carries the flow id and a *monotonic per-flow
sequence number* (:attr:`TraceEvent.flow_seq`), assigned at record time,
so downstream consumers (:mod:`repro.traces`) can join send/recv/drop
events without depending on emission or serialization order.

Tracing every packet of a large experiment is intentionally opt-in, via
:meth:`repro.obs.instrument.Instrumentation.attach` (``trace=True``) or
the ``--trace-out`` CLI flag; the recorded stream is exported as
``repro.obs/v1`` JSONL and analyzed with ``repro trace analyze``.

An event stays a :class:`TraceEvent` tuple from the tracer until
:func:`repro.obs.export.trace_line` formats its JSONL line; no per-packet
dict is built on the way ("What tracing costs", ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Set

if TYPE_CHECKING:
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.net.packet import Packet


class TraceEvent(NamedTuple):
    """One recorded packet event.

    Attributes:
        time: Simulation time of the event.
        kind: ``"send"`` (origin injection), ``"recv"`` (delivery to a
            watched node), or ``"drop"`` (lost on a watched link).
        where: Node name (send/recv) or link name (drop).
        packet_uid: Globally unique packet id (one per transmission).
        flow_id: Stable per-flow identifier (the transport flow id).
        flow_seq: Monotonic per-flow event counter assigned by the
            tracer — the stable join key for analyzers, independent of
            how records were interleaved on export.
        packet_kind: ``"data"`` or ``"ack"``.
        seq: Data segment number (for ACKs: the triggering segment).
        ack: Cumulative ACK carried (``-1`` on data packets).
        retransmit: True when the data segment is a retransmission.
        path: ``"a>b>c"`` source route when per-packet multipath routing
            chose one; ``None`` under destination-based forwarding.
    """

    time: float
    kind: str  # "send" | "recv" | "drop"
    where: str  # node or link name
    packet_uid: int
    flow_id: int
    flow_seq: int
    packet_kind: str
    seq: int
    ack: int
    retransmit: bool = False
    path: Optional[str] = None


@dataclass(frozen=True)
class FaultRecord:
    """One applied fault-injection state change (see :mod:`repro.faults`)."""

    time: float
    kind: str  # "link-down" | "link-up" | "path-blackout" | ...
    target: str  # link name or path description
    detail: str  # human-readable state change ("down", "delay x3", ...)


class _TracedReceive:
    """Picklable wrapper installed over ``node.receive`` by a tracer.

    A plain class (not a closure) so that a traced simulation graph can
    round-trip through :mod:`repro.checkpoint` — closures cannot be
    pickled, and these wrappers end up referenced from heap events.
    """

    __slots__ = ("tracer", "node", "original")

    def __init__(
        self, tracer: "PacketTracer", node: "Node", original: "Callable[[Packet], None]"
    ) -> None:
        self.tracer = tracer
        self.node = node
        self.original = original

    def __call__(self, packet: Packet) -> None:
        node = self.node
        self.tracer._record(node.sim.now, "recv", node.name, packet)
        self.original(packet)


class _TracedSend:
    """Picklable wrapper installed over ``node.send`` by a tracer."""

    __slots__ = ("tracer", "node", "original")

    def __init__(
        self, tracer: "PacketTracer", node: "Node", original: "Callable[[Packet], None]"
    ) -> None:
        self.tracer = tracer
        self.node = node
        self.original = original

    def __call__(self, packet: Packet) -> None:
        self.original(packet)
        node = self.node
        self.tracer._record(node.sim.now, "send", node.name, packet)


class _DropRecorder:
    """Picklable link drop listener feeding a tracer."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: "PacketTracer") -> None:
        self.tracer = tracer

    def __call__(self, dropped_on: "Link", packet: Packet) -> None:
        self.tracer._record(dropped_on.sim.now, "drop", dropped_on.name, packet)


class PacketTracer:
    """Records sends, arrivals, and drops at chosen nodes and links.

    One tracer owns one event list and the per-flow ``flow_seq``
    counters; all watch methods are idempotent per node/link, so the
    unified :class:`~repro.obs.instrument.Instrumentation` surface can
    attach overlapping component sets without double-recording.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._flow_seq: Dict[int, int] = {}
        self._watched_recv: Set[int] = set()
        self._watched_send: Set[int] = set()
        self._watched_drop: Set[int] = set()

    # ------------------------------------------------------------------
    def _record(self, time: float, kind: str, where: str, packet: Packet) -> None:
        flow_id = packet.flow_id
        flow_seq = self._flow_seq.get(flow_id, 0)
        self._flow_seq[flow_id] = flow_seq + 1
        route = packet.route
        self.events.append(
            TraceEvent(
                time, kind, where, packet.uid, flow_id, flow_seq,
                packet.kind, packet.seq, packet.ack, packet.retransmit,
                ">".join(route) if route is not None else None,
            )
        )

    # ------------------------------------------------------------------
    def watch_node(self, node: "Node") -> None:
        """Record every packet delivered to ``node`` (wraps its receive)."""
        if id(node) in self._watched_recv:
            return
        self._watched_recv.add(id(node))
        node.receive = _TracedReceive(  # type: ignore[method-assign]
            self, node, node.receive
        )

    def watch_node_sends(self, node: "Node") -> None:
        """Record every packet injected at ``node`` (wraps its send).

        The event is recorded *after* the node's path policy ran, so the
        chosen source route (if any) appears in :attr:`TraceEvent.path`.
        """
        if id(node) in self._watched_send:
            return
        self._watched_send.add(id(node))
        node.send = _TracedSend(self, node, node.send)  # type: ignore[method-assign]

    def watch_link_drops(self, link: "Link") -> None:
        """Record every packet the link drops."""
        if id(link) in self._watched_drop:
            return
        self._watched_drop.add(id(link))
        link.drop_listeners.append(_DropRecorder(self))

    # ------------------------------------------------------------------
    def sends(
        self, flow_id: Optional[int] = None, kind: str = "data"
    ) -> List[TraceEvent]:
        """Send events, optionally filtered by flow."""
        return [
            event
            for event in self.events
            if event.kind == "send"
            and event.packet_kind == kind
            and (flow_id is None or event.flow_id == flow_id)
        ]

    def arrivals(
        self, flow_id: Optional[int] = None, kind: str = "data"
    ) -> List[TraceEvent]:
        """Arrival events, optionally filtered by flow."""
        return [
            event
            for event in self.events
            if event.kind == "recv"
            and event.packet_kind == kind
            and (flow_id is None or event.flow_id == flow_id)
        ]

    def drops(self, flow_id: Optional[int] = None) -> List[TraceEvent]:
        return [
            event
            for event in self.events
            if event.kind == "drop"
            and (flow_id is None or event.flow_id == flow_id)
        ]

    def arrival_seqs(self, flow_id: int) -> List[int]:
        """Data-segment sequence numbers in arrival order for one flow."""
        return [event.seq for event in self.arrivals(flow_id=flow_id)]
