"""Common TCP sender machinery.

:class:`TcpSenderBase` implements everything the Reno family shares:

* segment-granularity send window (``cwnd`` in packets, like ns-2 and the
  paper's pseudo-code),
* slow start / congestion avoidance growth,
* a single RFC 2988 retransmission timer with exponential backoff,
* Karn-compliant RTT sampling (one timed segment at a time, never a
  retransmission),
* limited transmit (RFC 3042),
* an infinite-bulk application model (optionally capped).

Loss recovery is the variant-specific part: subclasses override the
``_on_dupack_event`` / ``_recovery_ack`` / ``_next_seq`` hooks.  The base
class by itself behaves exactly like classic Reno (fast retransmit at
``dupthresh`` duplicate ACKs, window inflation, exit recovery on the first
new ACK); :class:`~repro.tcp.reno.RenoSender` is a thin alias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.net.node import Agent
from repro.net.packet import Packet
from repro.tcp.rto import RtoEstimator

if TYPE_CHECKING:
    from repro.net.node import Node
    from repro.sim.engine import Simulator
    from repro.sim.events import EventHandle

#: A practically-infinite ssthresh sentinel (segments).
INFINITE_SSTHRESH = float("inf")


@dataclass
class TcpConfig:
    """Tunable parameters shared by all TCP sender variants.

    Attributes:
        mss_bytes: Segment size on the wire.
        initial_cwnd: Initial congestion window (segments).
        initial_ssthresh: Initial slow-start threshold (segments).
        dupthresh: Duplicate-ACK threshold for fast retransmit.
        receiver_window: Advertised window cap (segments).
        initial_rto / min_rto / max_rto: RFC 2988 timer parameters.
        limited_transmit: Send new data on the first two duplicate ACKs.
        total_segments: Stop after this many segments (None = infinite bulk).
        timestamps: Carry an RFC 1323-style timestamp on data segments
            (needed by the Eifel variant; harmless otherwise).
    """

    mss_bytes: int = 1000
    initial_cwnd: float = 1.0
    initial_ssthresh: float = INFINITE_SSTHRESH
    dupthresh: int = 3
    #: Advertised receiver window (segments).  Finite like every real
    #: receiver's: it bounds how far past snd_una the sender can run when
    #: loss recovery stalls on an unlucky hole.
    receiver_window: int = 1_000
    initial_rto: float = 3.0
    min_rto: float = 1.0
    max_rto: float = 64.0
    limited_transmit: bool = True
    total_segments: Optional[int] = None
    timestamps: bool = False


@dataclass
class TcpStats:
    """Counters exposed by every sender for tests and experiments."""

    data_packets_sent: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    acks_received: int = 0
    dupacks_received: int = 0
    recoveries_entered: int = 0
    spurious_retransmits_detected: int = 0
    rtt_samples: int = 0
    cwnd_peak: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


class TcpSenderBase(Agent):
    """Base TCP sender (classic Reno behaviour).

    Args:
        sim: Owning simulator.
        node: Node the sender is attached to.
        flow_id: Flow identifier (shared with the receiver).
        peer: Name of the receiver's node.
        config: Protocol parameters; defaults are paper-era standards.
    """

    #: Human-readable variant name, overridden by subclasses.
    variant: str = "reno"

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        flow_id: int,
        peer: str,
        config: Optional[TcpConfig] = None,
    ) -> None:
        super().__init__(sim, node, flow_id)
        self.peer = peer
        self.config = config if config is not None else TcpConfig()
        self.rto = RtoEstimator(
            initial_rto=self.config.initial_rto,
            min_rto=self.config.min_rto,
            max_rto=self.config.max_rto,
        )
        self.cwnd: float = self.config.initial_cwnd
        self.ssthresh: float = self.config.initial_ssthresh
        self.snd_una = 0  # oldest unacknowledged segment
        self.snd_nxt = 0  # next segment to send (may roll back after RTO)
        self.snd_max = 0  # highest segment ever sent + 1
        self.dupacks = 0
        self.dupthresh = self.config.dupthresh
        self.in_recovery = False
        self.recovery_point = -1
        self.stats = TcpStats()
        #: Metrics probe installed by repro.obs (None = not observed;
        #: every hook below is a single is-not-None check then).
        self.obs: Optional[Any] = None
        #: Called with this sender once, at the end of the ``receive``
        #: in which :attr:`done` first turns true (None = nobody asked).
        self.on_complete: Optional[Callable[["TcpSenderBase"], None]] = None
        self._started = False
        #: The one live RTO heap event (None = disarmed).  Restarts that
        #: only push the deadline *later* don't touch the heap — the
        #: event fires at the old deadline and lazily re-arms itself at
        #: ``_timer_deadline`` (with the tie-break seq reserved at the
        #: restart), so the per-ACK cancel/re-schedule churn is gone.
        self._timer_handle: Optional["EventHandle"] = None
        self._timer_deadline: Optional[float] = None
        self._timer_stamp = 0
        self._rto_cb = self._on_rto_fire
        self._label_rto = f"rto f{flow_id}"
        self._label_start = f"tcp start f{flow_id}"
        # Karn RTT timing: one segment timed at a time.
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        self._ever_retransmitted: set[int] = set()
        self._limited_transmit_allowance = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Begin transmitting at simulation time ``at``."""
        if self._started:
            return
        self._started = True
        self.sim.post(at, self._send_available, None, self._label_start)

    @property
    def done(self) -> bool:
        """True once a capped transfer has been fully acknowledged."""
        total = self.config.total_segments
        return total is not None and self.snd_una >= total

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if not packet.is_ack:
            return
        self.stats.acks_received += 1
        self._process_ack_options(packet)
        if packet.ack > self.snd_una:
            self._on_new_ack(packet)
            # Only a new ACK advances snd_una, so only it can finish.
            callback = self.on_complete
            if callback is not None and self.done:
                self.on_complete = None
                callback(self)
        elif packet.ack == self.snd_una and self.flightsize() > 0:
            self._on_dupack(packet)
        # else: stale ACK below snd_una — ignore.

    def _process_ack_options(self, packet: Packet) -> None:
        """Hook for SACK/DSACK/timestamp option processing (subclasses)."""

    def _on_new_ack(self, packet: Packet) -> None:
        ack = packet.ack
        newly_acked = ack - self.snd_una
        self._take_rtt_sample(ack)
        self.snd_una = ack
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        self._ever_retransmitted = {
            seq for seq in self._ever_retransmitted if seq >= self.snd_una
        }
        if self.in_recovery:
            self._recovery_ack(packet, newly_acked)
        else:
            self.dupacks = 0
            self._limited_transmit_allowance = 0
            self._grow_cwnd()
        self._after_new_ack(packet, newly_acked)
        if self.obs is not None:
            self.obs.on_ack(self)
        self._restart_timer()
        self._send_available()

    def _after_new_ack(self, packet: Packet, newly_acked: int) -> None:
        """Hook invoked after common new-ACK processing (subclasses)."""

    def _on_dupack(self, packet: Packet) -> None:
        self.stats.dupacks_received += 1
        self.dupacks += 1
        self._on_dupack_event(packet)
        self._send_available()

    # -- default (classic Reno) loss recovery ---------------------------
    def _on_dupack_event(self, packet: Packet) -> None:
        """Duplicate-ACK state machine; base implements classic Reno."""
        if self.in_recovery:
            # Window inflation: each dupack signals a departure.
            self.cwnd += 1
            return
        if self.dupacks >= self.dupthresh:
            self._enter_fast_recovery(inflate=True)
        elif self.config.limited_transmit and self.dupacks <= 2:
            self._limited_transmit_allowance = min(self.dupacks, 2)

    def _enter_fast_recovery(self, inflate: bool) -> None:
        """Halve the window and retransmit the oldest outstanding segment."""
        self.in_recovery = True
        self.recovery_point = self.snd_max
        # Halve the *congestion estimate*: cwnd where flight exceeds it
        # (flightsize can overshoot cwnd while a prior recovery stalls on
        # a lost retransmission, and must not snowball into ssthresh).
        self.ssthresh = max(min(self.flightsize(), self.cwnd) / 2.0, 2.0)
        self.cwnd = self.ssthresh + (self.dupacks if inflate else 0)
        self._limited_transmit_allowance = 0
        self.stats.fast_retransmits += 1
        self.stats.recoveries_entered += 1
        if self.obs is not None:
            self.obs.on_loss(self)
        self._retransmit(self.snd_una)
        self._restart_timer()

    def _recovery_ack(self, packet: Packet, newly_acked: int) -> None:
        """New ACK while in recovery; classic Reno exits immediately."""
        self._exit_recovery()

    def _exit_recovery(self) -> None:
        self.in_recovery = False
        self.recovery_point = -1
        self.dupacks = 0
        self._limited_transmit_allowance = 0
        self.cwnd = self.ssthresh

    # ------------------------------------------------------------------
    # Window growth
    # ------------------------------------------------------------------
    def _grow_cwnd(self) -> None:
        """One new-ACK worth of growth: slow start or congestion avoidance."""
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd
        if self.cwnd > self.stats.cwnd_peak:
            self.stats.cwnd_peak = self.cwnd

    def flightsize(self) -> int:
        """Outstanding segments by the standard definition."""
        return self.snd_max - self.snd_una

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _send_available(self) -> None:
        """Send as much as the window (plus limited transmit) permits."""
        while True:
            seq = self._next_seq()
            if seq is None:
                break
            if not self._window_allows(seq):
                break
            self._transmit(seq)

    def _next_seq(self) -> Optional[int]:
        """Next segment to send, or None if nothing is eligible.

        Base behaviour: the in-order stream at ``snd_nxt`` (which replays
        old data after an RTO rolled it back).
        """
        total = self.config.total_segments
        if total is not None and self.snd_nxt >= total:
            return None
        return self.snd_nxt

    def _window_allows(self, seq: int) -> bool:
        window = min(self.cwnd, float(self.config.receiver_window))
        usable = math.floor(window) + self._limited_transmit_allowance
        return seq < self.snd_una + usable

    def _transmit(self, seq: int) -> None:
        """Put segment ``seq`` on the wire and update send state."""
        # Anything below snd_max was transmitted before: a retransmission.
        is_retransmit = seq < self.snd_max
        if is_retransmit:
            self.stats.retransmits += 1
            self._ever_retransmitted.add(seq)
            if self.obs is not None:
                self.obs.on_retransmit(self)
        packet = Packet(
            "data",
            src=self.node.name,
            dst=self.peer,
            flow_id=self.flow_id,
            seq=seq,
            size_bytes=self.config.mss_bytes,
            ts_val=self.sim.now if self.config.timestamps else None,
            retransmit=is_retransmit,
        )
        self.stats.data_packets_sent += 1
        if self._timed_seq is None and not is_retransmit:
            self._timed_seq = seq
            self._timed_at = self.sim.now
        if seq == self.snd_nxt:
            self.snd_nxt += 1
        if self.snd_nxt > self.snd_max:
            self.snd_max = self.snd_nxt
        if self._timer_handle is None:
            self._restart_timer()
        self._on_segment_sent(seq, is_retransmit)
        self.inject(packet)

    def _on_segment_sent(self, seq: int, is_retransmit: bool) -> None:
        """Hook called after each transmission (subclasses)."""

    def _retransmit(self, seq: int) -> None:
        """Immediately retransmit ``seq`` outside the normal window loop."""
        self._ever_retransmitted.add(seq)
        self._transmit(seq)

    # ------------------------------------------------------------------
    # RTT sampling
    # ------------------------------------------------------------------
    def _take_rtt_sample(self, ack: int) -> None:
        if self._timed_seq is None or ack <= self._timed_seq:
            return
        if self._timed_seq not in self._ever_retransmitted:
            self.rto.on_sample(self.sim.now - self._timed_at)
            self.stats.rtt_samples += 1
        self._timed_seq = None

    @property
    def srtt(self) -> Optional[float]:
        return self.rto.srtt

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    def _restart_timer(self) -> None:
        if self.flightsize() <= 0:
            self._cancel_timer()
            return
        deadline = self.sim.now + self.rto.rto
        self._timer_deadline = deadline
        self._timer_stamp = self.sim.reserve_seq()
        handle = self._timer_handle
        if handle is not None:
            if handle.time <= deadline:
                return  # live event fires no later; it re-arms itself
            handle.cancel()
        self._timer_handle = self.sim.schedule(
            deadline, self._rto_cb, label=self._label_rto,
            seq=self._timer_stamp,
        )

    def _cancel_timer(self) -> None:
        self._timer_deadline = None
        if self._timer_handle is not None:
            self._timer_handle.cancel()
            self._timer_handle = None

    def _on_rto_fire(self) -> None:
        """The heap event behind the lazily-extended RTO timer."""
        self._timer_handle = None
        deadline = self._timer_deadline
        if deadline is None:
            return
        if self.sim.now < deadline:
            # Extended since this event was armed: re-arm at the real
            # deadline, with the tie-break seq reserved at the restart so
            # same-time ordering matches an eagerly-rescheduled timer.
            self._timer_handle = self.sim.schedule(
                deadline, self._rto_cb, label=self._label_rto,
                seq=self._timer_stamp,
            )
            return
        self._on_timeout()

    def _has_more_data(self) -> bool:
        total = self.config.total_segments
        return total is None or self.snd_nxt < total

    def _on_timeout(self) -> None:
        """Retransmission timeout: slow-start restart with backoff."""
        self._timer_handle = None
        if self.flightsize() <= 0:
            return
        self.stats.timeouts += 1
        if self.obs is not None:
            self.obs.on_loss(self)
        self.rto.on_timeout()
        self.ssthresh = max(min(self.flightsize(), self.cwnd) / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = -1
        self._limited_transmit_allowance = 0
        self._timed_seq = None
        self._on_timeout_hook()
        # Go back to the oldest hole; segments already received will be
        # re-ACKed by the receiver and the cumulative ACK jumps forward.
        self.snd_nxt = self.snd_una
        self._restart_timer()
        self._send_available()

    def _on_timeout_hook(self) -> None:
        """Extra timeout processing for subclasses (e.g. scoreboard)."""

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} flow={self.flow_id} cwnd={self.cwnd:.2f} "
            f"una={self.snd_una} nxt={self.snd_nxt} max={self.snd_max} "
            f"{'REC' if self.in_recovery else 'OPEN'}>"
        )
