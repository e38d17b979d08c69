"""The unified attachment surface: one way to observe a simulation.

:class:`Instrumentation` replaces the four divergent conventions the
repository grew — ``FlowThroughputMonitor(sim, receiver, ...)``
constructors, hand-wrapping links for a :class:`PacketTracer`, passing a
:class:`FaultTimelineMonitor` into :class:`~repro.faults.injector.Injector`,
and ad-hoc queue sampling — with a single owner object::

    from repro.obs import Instrumentation

    inst = Instrumentation()
    inst.attach(net)                 # probes every link, sender, receiver
    mon = inst.throughput(flow.receiver)
    net.run(until=30.0)
    records = inst.to_records()      # repro.obs/v1 records for export

Probes are *push-based*: each observed component gets an ``obs``
attribute holding pre-resolved metric objects, and its hot paths run
``if self.obs is not None: ...`` inline.  No simulator events are ever
scheduled by a probe, so attaching a registry leaves the event count —
and therefore the simulation's results — bit-identical.  With no
registry attached the cost is one ``is not None`` check per hook site.

The *ambient* context (:func:`set_ambient` / :func:`maybe_observe`) lets
sweep cell functions opt into whatever instrumentation the executor
activated in their worker process without threading a parameter through
every experiment signature: :class:`~repro.exec.runner.ParallelRunner`
sets an ambient :class:`Instrumentation` around each cell when metric
collection is requested, the cell function calls ``maybe_observe(net)``,
and what was collected travels back over the process boundary: records
as plain dicts, packet events as the tracer's tuples.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.obs.monitors import (
    CwndMonitor,
    FaultTimelineMonitor,
    FlowThroughputMonitor,
    QueueMonitor,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import PacketTracer, TraceEvent

if TYPE_CHECKING:
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.sim.engine import Simulator
    from repro.tcp.receiver import TcpReceiver


class SenderProbe:
    """Per-flow probe for the Reno-family senders (:mod:`repro.tcp.base`).

    Records, all keyed by ``(flow, variant)`` labels:

    * ``flow.cwnd`` / ``flow.srtt`` / ``flow.rto`` — timeseries appended
      on every new cumulative ACK;
    * ``flow.retransmits`` — cumulative retransmission count, appended
      when a retransmission goes on the wire;
    * ``flow.losses`` — cumulative loss *events* (fast-retransmit
      entries plus timeouts), appended as each is declared.
    """

    __slots__ = ("_sim", "_cwnd", "_srtt", "_rto", "_retransmits", "_losses")

    def __init__(self, sim: "Simulator", registry: MetricsRegistry, sender) -> None:
        self._sim = sim
        labels = {"flow": sender.flow_id, "variant": sender.variant}
        self._cwnd = registry.timeseries("flow.cwnd", **labels)
        self._srtt = registry.timeseries("flow.srtt", **labels)
        self._rto = registry.timeseries("flow.rto", **labels)
        self._retransmits = registry.timeseries("flow.retransmits", **labels)
        self._losses = registry.timeseries("flow.losses", **labels)

    def on_ack(self, sender) -> None:
        now = self._sim.now
        self._cwnd.append(now, sender.cwnd)
        srtt = sender.rto.srtt
        if srtt is not None:
            self._srtt.append(now, srtt)
        self._rto.append(now, sender.rto.rto)

    def on_retransmit(self, sender) -> None:
        self._retransmits.append(self._sim.now, sender.stats.retransmits)

    def on_loss(self, sender) -> None:
        self._losses.append(
            self._sim.now,
            sender.stats.recoveries_entered + sender.stats.timeouts,
        )


class PrSenderProbe:
    """Per-flow probe for :class:`~repro.core.pr.TcpPrSender`.

    Records ``flow.cwnd`` / ``flow.ewrtt`` / ``flow.mxrtt`` timeseries on
    every informative ACK, plus cumulative ``flow.losses`` (timer-declared
    drops) and ``flow.retransmits`` — the estimator trajectories the
    paper's Tables 1–2 discussion turns on.
    """

    __slots__ = ("_sim", "_cwnd", "_ewrtt", "_mxrtt", "_retransmits", "_losses")

    def __init__(self, sim: "Simulator", registry: MetricsRegistry, sender) -> None:
        self._sim = sim
        labels = {"flow": sender.flow_id, "variant": sender.variant}
        self._cwnd = registry.timeseries("flow.cwnd", **labels)
        self._ewrtt = registry.timeseries("flow.ewrtt", **labels)
        self._mxrtt = registry.timeseries("flow.mxrtt", **labels)
        self._retransmits = registry.timeseries("flow.retransmits", **labels)
        self._losses = registry.timeseries("flow.losses", **labels)

    def on_ack(self, sender) -> None:
        now = self._sim.now
        self._cwnd.append(now, sender.cwnd)
        ewrtt = sender.ewrtt
        if ewrtt is not None:
            self._ewrtt.append(now, ewrtt)
        self._mxrtt.append(now, sender.mxrtt)

    def on_retransmit(self, sender) -> None:
        self._retransmits.append(self._sim.now, sender.stats.retransmits)

    def on_loss(self, sender) -> None:
        self._losses.append(self._sim.now, sender.stats.drops_detected)


class LinkProbe:
    """Per-link probe serving both the link and its queue.

    Installed as ``link.obs`` *and* ``link.queue.obs`` (the queue has no
    simulator reference of its own, so the probe carries it).  Records:

    * ``link.drops`` counters labelled ``kind=fault|loss_model|queue``;
    * ``link.queue_depth`` — a timeseries appended whenever the queue's
      occupancy changes (accept or dequeue), i.e. event-driven rather
      than polled.
    """

    __slots__ = ("_sim", "_queue", "_depth", "_drop_counters", "_queue_drops")

    def __init__(self, sim: "Simulator", registry: MetricsRegistry, link) -> None:
        self._sim = sim
        self._queue = link.queue
        self._depth = registry.timeseries("link.queue_depth", link=link.name)
        self._drop_counters = {
            kind: registry.counter("link.drops", link=link.name, kind=kind)
            for kind in ("fault", "loss_model", "queue")
        }
        self._queue_drops = self._drop_counters["queue"]

    def drop(self, kind: str) -> None:
        self._drop_counters[kind].inc()

    # Queue-facing hooks (see repro.net.queues.Queue).
    def queue_depth(self) -> None:
        self._depth.append(self._sim.now, self._queue.occupancy)

    def queue_drop(self) -> None:
        self._queue_drops.inc()


class ReceiverProbe:
    """Per-flow probe for :class:`~repro.tcp.receiver.TcpReceiver`.

    Records ``flow.delivered`` (in-order delivery progress), the
    ``flow.reorder_displacement`` timeseries, and a
    ``flow.reorder_displacement.hist`` histogram — displacement being how
    many segments below the highest-seen sequence a late arrival landed,
    the reorder-density-style severity measure of Wu et al.
    """

    __slots__ = ("_sim", "_delivered", "_displacement", "_hist")

    def __init__(self, sim: "Simulator", registry: MetricsRegistry, receiver) -> None:
        self._sim = sim
        self._delivered = registry.timeseries("flow.delivered", flow=receiver.flow_id)
        self._displacement = registry.timeseries(
            "flow.reorder_displacement", flow=receiver.flow_id
        )
        self._hist = registry.histogram(
            "flow.reorder_displacement.hist", flow=receiver.flow_id
        )

    def reorder(self, displacement: int) -> None:
        self._displacement.append(self._sim.now, displacement)
        self._hist.observe(displacement)

    def delivered(self, rcv_nxt: int) -> None:
        self._delivered.append(self._sim.now, rcv_nxt)


class Instrumentation:
    """One owner for every observer of a run.

    Args:
        registry: Metrics sink; a fresh :class:`MetricsRegistry` by
            default.
        trace: When True, :meth:`attach` additionally wires the shared
            :class:`PacketTracer` to every observed link's drops and
            every observed receiver's node (opt-in: tracing every packet
            of a large sweep is expensive by design).
    """

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, trace: bool = False
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_enabled = trace
        self._tracer: Optional[PacketTracer] = None
        #: Scheduled monitors created through this instrumentation.
        self.monitors: List[Any] = []
        self._fault_monitor: Optional[FaultTimelineMonitor] = None

    # ------------------------------------------------------------------
    # The unified attach entry point
    # ------------------------------------------------------------------
    def attach(self, *components: Any) -> "Instrumentation":
        """Probe each component (sender, receiver, link, flow, network).

        Dispatches on type; a :class:`~repro.net.network.Network` attaches
        every link and every node-registered agent, and anything with
        ``sender``/``receiver`` attributes (e.g.
        :class:`~repro.app.bulk.BulkTransfer`) attaches both ends.
        Returns self for chaining.
        """
        from repro.core.pr import TcpPrSender
        from repro.net.link import Link
        from repro.net.network import Network
        from repro.tcp.base import TcpSenderBase
        from repro.tcp.receiver import TcpReceiver

        for component in components:
            if isinstance(component, Network):
                for link in component.links.values():
                    self.observe_link(link)
                for node in component.nodes.values():
                    for agent in node.agents.values():
                        if isinstance(agent, (TcpPrSender, TcpSenderBase)):
                            self.observe_sender(agent)
                        elif isinstance(agent, TcpReceiver):
                            self.observe_receiver(agent)
            elif isinstance(component, (TcpPrSender, TcpSenderBase)):
                self.observe_sender(component)
            elif isinstance(component, TcpReceiver):
                self.observe_receiver(component)
            elif isinstance(component, Link):
                self.observe_link(component)
            elif hasattr(component, "sender") and hasattr(component, "receiver"):
                self.attach(component.sender, component.receiver)
            else:
                raise TypeError(
                    f"don't know how to observe {type(component).__name__}"
                )
        return self

    # ------------------------------------------------------------------
    # Component probes
    # ------------------------------------------------------------------
    def observe_sender(self, sender: Any) -> None:
        """Install the per-ACK metrics probe on a TCP sender.

        With tracing enabled, the sender's node is additionally watched
        both ways: injected packets become ``send`` events (with the
        chosen source route) and returning ACKs become ``recv`` events —
        the two halves the :mod:`repro.traces` analyzer joins for RTT
        samples and duplicate-ACK detection.
        """
        from repro.core.pr import TcpPrSender

        if self.trace_enabled:
            tracer = self.tracer
            tracer.watch_node_sends(sender.node)
            tracer.watch_node(sender.node)
        if sender.obs is not None:
            return
        probe_cls = (
            PrSenderProbe if isinstance(sender, TcpPrSender) else SenderProbe
        )
        sender.obs = probe_cls(sender.sim, self.registry, sender)

    def observe_link(self, link: "Link") -> None:
        """Install the drop/queue-depth probe on a link and its queue."""
        if link.obs is not None:
            return
        probe = LinkProbe(link.sim, self.registry, link)
        link.obs = probe
        link.queue.obs = probe
        if self.trace_enabled:
            self.tracer.watch_link_drops(link)

    def observe_receiver(self, receiver: "TcpReceiver") -> None:
        """Install the delivery/reordering probe on a receiver."""
        if receiver.obs is not None:
            return
        receiver.obs = ReceiverProbe(receiver.sim, self.registry, receiver)
        if self.trace_enabled:
            self.trace_node(receiver.node)

    # ------------------------------------------------------------------
    # Scheduled monitors (poll-based; these do add simulator events)
    # ------------------------------------------------------------------
    def throughput(
        self,
        receiver: "TcpReceiver",
        mss_bytes: int = 1000,
        interval: float = 0.5,
    ) -> FlowThroughputMonitor:
        """Attach a goodput sampler to ``receiver`` and return it."""
        monitor = FlowThroughputMonitor(
            receiver.sim, receiver, mss_bytes=mss_bytes, interval=interval
        )
        self.monitors.append(monitor)
        return monitor

    def cwnd(self, sender: Any, interval: float = 0.1) -> CwndMonitor:
        """Attach a polled cwnd sampler to ``sender`` and return it."""
        monitor = CwndMonitor(sender.sim, sender, interval=interval)
        self.monitors.append(monitor)
        return monitor

    def queue(self, link: "Link", interval: float = 0.1) -> QueueMonitor:
        """Attach a polled occupancy sampler to ``link``'s queue."""
        monitor = QueueMonitor(link.sim, link.queue, interval=interval)
        self.monitors.append(monitor)
        return monitor

    def fault_timeline(self) -> FaultTimelineMonitor:
        """The shared fault recorder (pass to ``Injector(monitor=...)``)."""
        if self._fault_monitor is None:
            self._fault_monitor = FaultTimelineMonitor()
            self.monitors.append(self._fault_monitor)
        return self._fault_monitor

    # ------------------------------------------------------------------
    # Packet tracing
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> PacketTracer:
        """The shared packet tracer (created on first use)."""
        if self._tracer is None:
            self._tracer = PacketTracer()
        return self._tracer

    def trace_node(self, node: "Node") -> PacketTracer:
        """Record every packet delivered to ``node``."""
        tracer = self.tracer
        tracer.watch_node(node)
        return tracer

    def trace_link(self, link: "Link") -> PacketTracer:
        """Record every packet dropped on ``link``."""
        tracer = self.tracer
        tracer.watch_link_drops(link)
        return tracer

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def trace_events(self) -> List[TraceEvent]:
        """The shared tracer's event list (empty when nothing was traced)."""
        return self._tracer.events if self._tracer is not None else []

    def fault_records(self) -> List[Dict[str, Any]]:
        """The fault timeline as ``repro.obs/v1`` ``fault`` records."""
        from repro.obs.export import fault_record

        if self._fault_monitor is None:
            return []
        return [fault_record(record) for record in self._fault_monitor.records]

    def to_records(self) -> List[Dict[str, Any]]:
        """Everything observed, as ``repro.obs/v1`` records (no header):
        one dict per packet event, the reference form exports avoid."""
        from repro.obs.export import trace_event_record

        records = self.registry.to_records()
        records.extend(trace_event_record(event) for event in self.trace_events())
        records.extend(self.fault_records())
        return records

    def summaries(self) -> Dict[str, Dict[str, Any]]:
        """Compact per-metric aggregates (see sweep telemetry)."""
        return self.registry.summaries()

    def __repr__(self) -> str:
        return (
            f"<Instrumentation metrics={len(self.registry)} "
            f"monitors={len(self.monitors)} trace={self.trace_enabled}>"
        )


def observe(
    *components: Any,
    registry: Optional[MetricsRegistry] = None,
    trace: bool = False,
) -> Instrumentation:
    """Create an :class:`Instrumentation` and attach ``components`` to it."""
    return Instrumentation(registry=registry, trace=trace).attach(*components)


# ----------------------------------------------------------------------
# Ambient instrumentation (process-local)
# ----------------------------------------------------------------------
_ambient: Optional[Instrumentation] = None


def set_ambient(instrumentation: Optional[Instrumentation]) -> None:
    """Make ``instrumentation`` the process's ambient sink (None clears)."""
    global _ambient
    _ambient = instrumentation


def get_ambient() -> Optional[Instrumentation]:
    """The process's ambient instrumentation, if any."""
    return _ambient


@contextmanager
def ambient(instrumentation: Instrumentation) -> Iterator[Instrumentation]:
    """Context manager form of :func:`set_ambient` (restores on exit)."""
    previous = _ambient
    set_ambient(instrumentation)
    try:
        yield instrumentation
    finally:
        set_ambient(previous)


def maybe_observe(*components: Any) -> Optional[Instrumentation]:
    """Attach ``components`` to the ambient instrumentation, if one is set.

    This is the hook experiment cell functions call after building their
    network: a no-op (returning None) in ordinary runs, and the metric
    collection point when the executor activated instrumentation for the
    cell (``--metrics-out`` / ``collect_metrics=True``).
    """
    instrumentation = _ambient
    if instrumentation is not None:
        instrumentation.attach(*components)
    return instrumentation
