"""Unidirectional store-and-forward link with finite queue.

Timing model (identical to ns-2's SimpleLink):

* a packet occupies the transmitter for ``size_bytes * 8 / bandwidth``
  seconds (serialization), then
* propagates for ``delay`` seconds, then
* is delivered to the downstream node.

While the transmitter is busy, arrivals go to the queue; if the queue
rejects them (DropTail full, RED early drop) they are lost.  An optional
:class:`~repro.net.lossgen.LossModel` can additionally drop packets on
arrival, before queueing.

Fault state (driven by :mod:`repro.faults`): a link carries an ``up``
flag and a transient *fault-loss* window.  A down link drops every
arrival (counted in :attr:`Link.fault_drops`, separate from loss-model
and queue drops) and either flushed or held its queue when it went down;
packets already serialized keep propagating (the bits are on the wire).
``delay_scale`` multiplies the propagation delay — the route-change RTT
jump of the paper's Section 1 scenarios — and ``fault_loss_rate``
Bernoulli-drops arrivals during e.g. an ACK-path blackout.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.net.delays import DelayModel
from repro.net.lossgen import LossModel
from repro.net.packet import Packet
from repro.net.queues import Queue, queue_from_spec

if TYPE_CHECKING:
    from repro.net.node import Node
    from repro.sim.engine import Simulator

#: Compiled subclasses from ``repro._cext._core`` (None when the pure
#: engine is active).  Written only by :mod:`repro.core.engine_select`;
#: read by ``Link.__new__``, which upgrades links attached to a
#: *compiled* simulator so the per-packet fast path stays in C
#: end to end.  Links attached to a pure simulator stay pure even when
#: the compiled engine is available.
_COMPILED_LINK: Optional[type] = None
_COMPILED_SIMULATOR: Optional[type] = None


class Link:
    """One-way link ``src -> dst``.

    Args:
        sim: Owning simulator.
        src: Upstream node (packets are sent from here).
        dst: Downstream node (packets are delivered to its ``receive``).
        bandwidth: Link rate in bits/second.
        delay: Propagation delay in seconds.
        queue: Queue instance or integer capacity in packets (DropTail).
        loss_model: Optional artificial loss applied on arrival.
        delay_model: Optional per-packet propagation-delay model; when
            set it overrides ``delay`` and can reorder packets on this
            single link (see :mod:`repro.net.delays`).

    Attributes:
        tx_packets / tx_bytes: Delivered traffic counters.
        arrived_packets: Packets handed to the link (before any drop).
    """

    __slots__ = (
        "sim",
        "src",
        "dst",
        "bandwidth",
        "delay",
        "queue",
        "loss_model",
        "delay_model",
        "name",
        "_finish_cb",
        "_label_tx",
        "_label_rx",
        "_inv_bandwidth",
        "_post_in",
        "_busy",
        "tx_packets",
        "tx_bytes",
        "arrived_packets",
        "loss_model_drops",
        "up",
        "fault_drops",
        "delay_scale",
        "fault_loss_rate",
        "_fault_rng",
        "drop_listeners",
        "obs",
    )

    def __init__(
        self,
        sim: "Simulator",
        src: "Node",
        dst: "Node",
        bandwidth: float,
        delay: float,
        queue: "int | Queue" = 100,
        loss_model: Optional[LossModel] = None,
        delay_model: Optional[DelayModel] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.delay = delay
        self.queue = queue_from_spec(queue)
        self.loss_model = loss_model
        self.delay_model = delay_model
        self.name = f"{src.name}->{dst.name}"
        # Hot-path caches: a bound method and one label per link for the
        # two per-packet events, instead of a closure (which pins the
        # packet twice) and an f-string per event.  ``dst.receive`` is
        # looked up per event on purpose — repro.obs.trace patches it.
        self._finish_cb = self._finish_transmission
        self._label_tx = f"tx {self.name}"
        self._label_rx = f"rx {self.name}"
        self._inv_bandwidth = 8.0 / bandwidth  # seconds per byte
        self._post_in = sim.post_in  # one attribute load per event, not two
        self._busy = False
        self.tx_packets = 0
        self.tx_bytes = 0
        self.arrived_packets = 0
        self.loss_model_drops = 0
        #: Fault state (see :mod:`repro.faults`).  ``fault_drops`` counts
        #: packets lost to link-down windows and fault-loss windows,
        #: deliberately separate from ``loss_model_drops``.
        self.up = True
        self.fault_drops = 0
        self.delay_scale = 1.0
        self.fault_loss_rate = 0.0
        self._fault_rng: Optional[random.Random] = None
        #: Observers called as fn(link, packet) when a packet is dropped.
        self.drop_listeners: List[Callable[["Link", Packet], None]] = []
        #: Metrics probe installed by repro.obs (None = not observed).
        self.obs: Optional[Any] = None
        src._register_link(self)

    def __new__(cls, sim: object = None, *args: Any, **kwargs: Any) -> "Link":
        # Engine selection follows the simulator instance: see the
        # matching hook on Simulator.  Unpickling calls __new__ with no
        # arguments, which lands on the pure class (compiled instances
        # carry their own engine-portable __reduce_ex__).
        if (
            cls is Link
            and _COMPILED_LINK is not None
            and _COMPILED_SIMULATOR is not None
            and isinstance(sim, _COMPILED_SIMULATOR)
        ):
            new: Callable[..., "Link"] = _COMPILED_LINK.__new__
            return new(_COMPILED_LINK)
        return object.__new__(cls)

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Offer ``packet`` to the link (drop, buffer, or transmit now)."""
        self.arrived_packets += 1
        if not self.up:
            self.fault_drops += 1
            if self.obs is not None:
                self.obs.drop("fault")
            self._notify_drop(packet)
            return
        if self.fault_loss_rate > 0.0 and self._fault_draw() < self.fault_loss_rate:
            self.fault_drops += 1
            if self.obs is not None:
                self.obs.drop("fault")
            self._notify_drop(packet)
            return
        if self.loss_model is not None and self.loss_model.should_drop(packet):
            self.loss_model_drops += 1
            if self.obs is not None:
                self.obs.drop("loss_model")
            self._notify_drop(packet)
            return
        if self._busy:
            if not self.queue.push(packet):
                self._notify_drop(packet)
            return
        self._start_transmission(packet)

    # ------------------------------------------------------------------
    # Fault control (the attachment points of repro.faults.Injector)
    # ------------------------------------------------------------------
    def set_up(self, up: bool, flush: bool = False) -> None:
        """Bring the link up or down.

        Going down with ``flush=True`` discards the queue contents
        (counted in :attr:`fault_drops`); ``flush=False`` holds them for
        retransmission when the link recovers.  Going up resumes the held
        queue.  Idempotent in both directions.
        """
        if up == self.up:
            return
        self.up = up
        if not up:
            if flush:
                while True:
                    packet = self.queue.pop()
                    if packet is None:
                        break
                    self.fault_drops += 1
                    if self.obs is not None:
                        self.obs.drop("fault")
                    self._notify_drop(packet)
            return
        if not self._busy:
            next_packet = self.queue.pop()
            if next_packet is not None:
                self._start_transmission(next_packet)

    def _fault_draw(self) -> float:
        if self._fault_rng is None:
            self._fault_rng = self.sim.rng.stream(f"fault:{self.name}")
        return self._fault_rng.random()

    def transmission_time(self, packet: Packet) -> float:
        """Serialization time of ``packet`` on this link, in seconds."""
        return packet.size_bytes * 8.0 / self.bandwidth

    # ------------------------------------------------------------------
    def _start_transmission(self, packet: Packet) -> None:
        # transmission_time() inlined; args passed positionally — these
        # two post_in calls run once per packet per hop.
        self._busy = True
        self._post_in(
            packet.size_bytes * self._inv_bandwidth,
            self._finish_cb,
            (packet,),
            self._label_tx,
        )

    def _finish_transmission(self, packet: Packet) -> None:
        self.tx_packets += 1
        self.tx_bytes += packet.size_bytes
        packet.hops += 1
        delay_model = self.delay_model
        delay = (
            self.delay
            if delay_model is None
            else delay_model.delay_for(packet)
        )
        self._post_in(
            delay * self.delay_scale,
            self.dst.receive,
            (packet,),
            self._label_rx,
        )
        if not self.up:  # link died mid-serialization: hold the queue
            self._busy = False
            return
        next_packet = self.queue.pop()
        if next_packet is None:
            self._busy = False
        else:
            self._start_transmission(next_packet)

    def _notify_drop(self, packet: Packet) -> None:
        for listener in self.drop_listeners:
            listener(self, packet)

    # ------------------------------------------------------------------
    @property
    def total_drops(self) -> int:
        """All drops on this link (queue overflow + loss model + faults)."""
        return self.queue.drops + self.loss_model_drops + self.fault_drops

    @property
    def utilization_bytes(self) -> int:
        return self.tx_bytes

    def __repr__(self) -> str:
        return (
            f"<Link {self.name} bw={self.bandwidth:.0f}bps delay={self.delay:.4f}s "
            f"tx={self.tx_packets} drops={self.total_drops}>"
        )
