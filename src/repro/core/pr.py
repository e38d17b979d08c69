"""The TCP-PR sender (Section 3 of the paper).

Algorithm summary (Table 1 of the paper):

* Packets live in two lists.  ``to-be-sent`` holds packets awaiting an
  opening in the congestion window (here: a retransmission heap plus the
  infinite bulk stream at ``snd_nxt``); ``to-be-ack`` holds packets in
  flight, each stamped with its send time and the congestion window at
  the time it was sent.
* **Loss detection uses only timers**: packet ``n`` is declared dropped
  at time ``t`` when ``t > time(n) + mxrtt``.  Duplicate ACKs are never
  counted.  ``mxrtt = beta * ewrtt`` where ewrtt is the max-tracking
  estimator of :mod:`repro.core.estimator`.
* On a drop of packet ``n`` *not* in the ``memorize`` list: the window is
  halved **relative to the window when n was sent** (``cwnd(n)/2``), and
  ``memorize`` snapshots the remaining outstanding packets; drops of
  memorized packets are retransmitted without further window cuts (one
  cut per loss event, as in NewReno/SACK).
* Window growth: slow-start (+1 per acked packet) until ``cwnd + 1``
  would exceed ``ssthr``, then congestion avoidance (+1/cwnd per acked
  packet).  The sender leaves slow start permanently except after
  extreme losses.
* Extreme losses (Section 3.2): a counter ``cburst`` tracks drops from
  ``memorize``; when it exceeds ``cwnd/2 + 1`` the sender emulates a
  NewReno coarse timeout — ``cwnd = 1``, slow-start mode, ``mxrtt``
  raised to at least 1 s, sending delayed by ``mxrtt``, with ``mxrtt``
  doubling (exponential backoff) if retransmissions sent at ``cwnd = 1``
  are dropped again.

Interpretation notes (under-specified points; see DESIGN.md §6):

* "ACK received for packet n": with cumulative ACKs, every packet below
  the ACK number is removed.  Additionally, when the receiver supplies
  standard RFC 2018 SACK blocks, packets covered by them are removed too
  — without this, a cumulative-only receiver would force TCP-PR to
  retransmit every packet above a hole (their timers expire before the
  hole's retransmission can be acknowledged), which contradicts the
  paper's SACK-parity results.  Set ``use_sack_accounting=False`` to run
  the literal cumulative-only pseudo-code (an ablation benchmark shows
  the resulting go-back-N collapse).
* Retransmitted packets yield no ewrtt samples (Karn ambiguity).
* After an extreme-loss event the whole outstanding window is moved into
  ``memorize`` so the inevitable follow-on timer expirations do not
  re-trigger the extreme-loss response; mxrtt doubling applies only to
  drops of packets sent *after* the event (a failed backoff round).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.estimator import MaxRttEstimator
from repro.net.node import Agent
from repro.net.packet import Packet
from repro.sim.errors import InvariantViolation

if TYPE_CHECKING:
    from repro.net.node import Node
    from repro.sim.engine import Simulator
    from repro.sim.events import EventHandle


@dataclass
class PrConfig:
    """TCP-PR parameters (paper defaults: alpha = 0.995, beta = 3.0).

    Attributes:
        alpha: Per-RTT memory factor of the ewrtt estimator, in (0, 1).
        beta: mxrtt threshold multiplier.
        mss_bytes: Segment size on the wire.
        initial_cwnd: Starting congestion window (segments).
        initial_mxrtt: Drop threshold before the first RTT sample.
        newton_iterations: Newton steps for ``alpha**(1/cwnd)`` (paper: 2).
        exact_root: Ablation — compute the fractional root exactly.
        use_sack_accounting: Remove packets from ``to-be-ack`` via SACK
            blocks as well as the cumulative ACK (see module docs).
        enable_memorize: Ablation — disable the memorize list (every
            detected drop halves the window).
        halve_at_send_cwnd: Ablation — if False, halve the *current*
            window instead of the window recorded when the packet was
            sent.
        extreme_loss_enabled: Enable the Section 3.2 extreme-loss mode.
        extreme_mxrtt_floor: mxrtt inflation on an extreme-loss event (1 s,
            matching coarse-timeout emulation).
        max_mxrtt: Cap for exponential backoff (RFC 2988's 64 s).
        receiver_window: Advertised-window cap (segments).
        total_segments: Stop after this many segments (None = infinite).
    """

    alpha: float = 0.995
    beta: float = 3.0
    mss_bytes: int = 1000
    initial_cwnd: float = 1.0
    #: Table 1 line 3 initializes ssthr := +inf; a finite value (like the
    #: window caps every ns-2-era study used) bounds the initial
    #: slow-start overshoot and makes cross-variant comparisons cleaner.
    initial_ssthresh: float = float("inf")
    initial_mxrtt: float = 3.0
    newton_iterations: int = 2
    exact_root: bool = False
    use_sack_accounting: bool = True
    enable_memorize: bool = True
    halve_at_send_cwnd: bool = True
    extreme_loss_enabled: bool = True
    extreme_mxrtt_floor: float = 1.0
    max_mxrtt: float = 64.0
    #: Lower bound on the drop threshold.  A degenerate zero RTT sample
    #: (possible only in synthetic settings) would otherwise make
    #: mxrtt = 0 and spin the declare/retransmit loop at one timestamp.
    min_mxrtt: float = 1e-3
    #: Timer granularity in seconds: drop checks fire on multiples of
    #: this tick, emulating the coarse kernel timers the paper's Linux
    #: implementation discusses (0 = ideal fine-grained timers).  Coarse
    #: ticks delay loss detection by up to one tick, which removes
    #: TCP-PR's detection-latency *advantage* over DUPACK senders in
    #: highly contended small-window regimes (see EXPERIMENTS.md).
    timer_granularity: float = 0.0
    #: Advertised receiver window (segments), finite like a real one.
    receiver_window: int = 1_000
    total_segments: Optional[int] = None


@dataclass
class PrStats:
    """Observable counters for tests and experiments."""

    data_packets_sent: int = 0
    retransmits: int = 0
    drops_detected: int = 0
    window_cuts: int = 0
    memorize_drops: int = 0
    extreme_events: int = 0
    backoff_doublings: int = 0
    spurious_drops: int = 0
    acks_received: int = 0
    packets_acked: int = 0
    cwnd_peak: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


#: Congestion modes (Table 1 blanks out the names; these are slow-start
#: and congestion-avoidance, per the surrounding prose).
SLOW_START = "slow-start"
CONG_AVOID = "cong-avoid"


class TcpPrSender(Agent):
    """TCP-PR sending endpoint.

    Args:
        sim: Owning simulator.
        node: Node the sender is attached to.
        flow_id: Flow identifier shared with the receiver.
        peer: Name of the receiver's node.
        config: :class:`PrConfig`; defaults are the paper's.
    """

    variant: str = "tcp-pr"

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        flow_id: int,
        peer: str,
        config: Optional[PrConfig] = None,
    ) -> None:
        super().__init__(sim, node, flow_id)
        self.peer = peer
        self.config = config if config is not None else PrConfig()
        self.estimator = MaxRttEstimator(
            alpha=self.config.alpha,
            beta=self.config.beta,
            initial_mxrtt=self.config.initial_mxrtt,
            newton_iterations=self.config.newton_iterations,
            exact_root=self.config.exact_root,
        )
        self.mode = SLOW_START
        self.cwnd: float = self.config.initial_cwnd
        self.ssthr: float = self.config.initial_ssthresh
        #: seq -> (sent_time, cwnd_at_send, next_check, arm_stamp) for
        #: packets in flight.  ``next_check`` is the quantized time the
        #: packet's drop deadline is next examined; ``arm_stamp`` orders
        #: same-tick examinations exactly like the per-packet timer
        #: events they replace (see ``_sweep_drop_checks``).
        self.to_be_ack: Dict[int, Tuple[float, float, float, int]] = {}
        #: Min-heap of in-flight sequence numbers, pushed on every send
        #: and popped lazily by ``_collect_acked`` — entries whose seq has
        #: left ``to_be_ack`` (drop-declared, SACKed) are skipped on pop.
        #: Turns the per-ACK cumulative scan from O(window) into
        #: O(newly acked · log window).
        self._inflight_heap: List[int] = []
        #: Heap of sequence numbers awaiting retransmission.
        self._retx_heap: List[int] = []
        self._retx_pending: Set[int] = set()
        self.snd_nxt = 0  # next never-sent segment
        self.cum_ack = 0  # highest cumulative ACK seen
        self.memorize: Set[int] = set()
        self.cburst = 0
        self.stats = PrStats()
        #: Metrics probe installed by repro.obs (None = not observed;
        #: every hook below is a single is-not-None check then).
        self.obs: Optional[Any] = None
        #: Called with this sender once, at the end of the ``receive``
        #: in which :attr:`done` first turns true (None = nobody asked).
        self.on_complete: Optional[Callable[["TcpPrSender"], None]] = None
        self._retransmitted: Set[int] = set()
        #: Transient mxrtt inflation (Section 3.2).  The paper's update
        #: rule ``mxrtt := beta * ewrtt`` runs on every ACK, so a forced
        #: inflation only lasts until the next acknowledged packet.
        self._mxrtt_override: Optional[float] = None
        self._blocked_until = -1.0
        self._unblock_handle: Optional["EventHandle"] = None
        self._extreme_active = False
        self._started = False
        #: The one coalesced drop timer for the whole flow (None =
        #: disarmed).  Armed at the earliest ``next_check`` over the
        #: in-flight set; on fire it sweeps every due packet and re-arms
        #: once — replacing one heap event per packet sent.
        self._timer_handle: Optional["EventHandle"] = None
        self._sweep_cb = self._sweep_drop_checks
        self._receiver_window_f = float(self.config.receiver_window)
        self._label_timer = f"pr timer f{flow_id}"
        self._label_start = f"pr start f{flow_id}"
        self._label_unblock = f"pr unblock f{flow_id}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Begin transmitting at simulation time ``at``."""
        if self._started:
            return
        self._started = True
        self.sim.post(at, self._flush_cwnd, None, self._label_start)

    @property
    def done(self) -> bool:
        """True once a capped transfer has been fully acknowledged."""
        total = self.config.total_segments
        if total is None:
            return False
        return (
            self.snd_nxt >= total
            and not self.to_be_ack
            and not self._retx_pending
        )

    @property
    def mxrtt(self) -> float:
        """Current drop-detection threshold."""
        base = max(self.estimator.mxrtt, self.config.min_mxrtt)
        if self._mxrtt_override is not None:
            base = max(base, self._mxrtt_override)
        return min(base, self.config.max_mxrtt)

    @property
    def ewrtt(self) -> Optional[float]:
        return self.estimator.ewrtt

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if not packet.is_ack:
            return
        self.stats.acks_received += 1
        acked = self._collect_acked(packet)
        if packet.ack > self.cum_ack:
            self.cum_ack = packet.ack
        # An ACK with no newly acked packet is ignored by design, but it
        # may have cancelled the last pending retransmission.
        if acked:
            # Progress resumes: the next "mxrtt := beta * ewrtt"
            # assignment (inside per-packet processing) supersedes any
            # forced inflation.
            self._mxrtt_override = None
            for seq in acked:
                self._process_acked_packet(seq)
            if self.obs is not None:
                self.obs.on_ack(self)
            self._flush_cwnd()
            if self.sim.sanitize:
                self._sanitize_check()
        callback = self.on_complete
        if callback is not None and self.done:
            self.on_complete = None
            callback(self)

    def _collect_acked(self, packet: Packet) -> List[int]:
        """Packets newly acknowledged by this ACK (cumulative + SACK)."""
        ack = packet.ack
        to_be_ack = self.to_be_ack
        inflight = self._inflight_heap
        acked: List[int] = []
        # Pops come out ascending, so a resent seq's duplicate heap
        # entries are adjacent — the acked[-1] check dedupes them.
        while inflight and inflight[0] < ack:
            seq = heapq.heappop(inflight)
            if seq in to_be_ack and (not acked or acked[-1] != seq):
                acked.append(seq)
        sacked: Set[int] = set()
        if self.config.use_sack_accounting and packet.sack_blocks:
            for start, end in packet.sack_blocks:
                for seq in range(start, end):
                    if seq >= ack:
                        sacked.add(seq)
                        if seq in to_be_ack:
                            acked.append(seq)
        # Cancel pending retransmissions this ACK proves unnecessary
        # (the "dropped" packet reached the receiver after all).
        if self._retx_pending:
            for seq in list(self._retx_pending):
                if seq < ack or seq in sacked:
                    self._retx_pending.discard(seq)
                    self.stats.spurious_drops += 1
        acked.sort()
        return acked

    def _process_acked_packet(self, seq: int) -> None:
        """Table 1, "ACK received for packet n" (run once per packet)."""
        sent_time = self.to_be_ack.pop(seq)[0]
        self.stats.packets_acked += 1
        # Lines 14-15: ewrtt/mxrtt update (skipped for retransmissions,
        # whose RTT sample would be ambiguous — Karn's rule).
        if seq not in self._retransmitted:
            sample = self.sim.now - sent_time
            ewrtt = self.estimator.observe(sample, self.cwnd)
            if self.sim.sanitize and ewrtt < sample - 1e-9:
                raise InvariantViolation(
                    "ewrtt-max-tracking",
                    f"ewrtt={ewrtt!r} fell below its own RTT sample "
                    f"{sample!r}: the estimator must track the maximum "
                    "(ewrtt = max(alpha^(1/cwnd) * ewrtt, sample))",
                )
        else:
            self._retransmitted.discard(seq)
        # Lines 16-17: list removal.
        self._memorize_discard(seq)
        # Lines 18-23: window growth.
        if self.mode == SLOW_START and self.cwnd + 1.0 <= self.ssthr:
            self.cwnd += 1.0
        else:
            self.mode = CONG_AVOID
            self.cwnd += 1.0 / self.cwnd
        if self.cwnd > self.stats.cwnd_peak:
            self.stats.cwnd_peak = self.cwnd

    def _memorize_discard(self, seq: int) -> None:
        if seq in self.memorize:
            self.memorize.discard(seq)
            if not self.memorize:
                self.cburst = 0
                self._extreme_active = False

    # ------------------------------------------------------------------
    # Timer-based drop detection
    # ------------------------------------------------------------------
    def _quantize(self, fire_at: float) -> float:
        """Round a timer deadline up to the next coarse tick, if any."""
        granularity = self.config.timer_granularity
        if granularity <= 0.0:
            return fire_at
        ticks = math.ceil(fire_at / granularity - 1e-12)
        return ticks * granularity

    def _arm_drop_timer(self, check: float, stamp: int) -> None:
        """Keep the single flow timer armed no later than ``check``.

        If the armed timer already fires at or before ``check`` there is
        nothing to do — a too-early fire just sweeps, finds nothing due,
        and re-arms (exactly how the per-packet events it replaces went
        stale).  Only a *later* armed time must be pulled forward, which
        happens when ``mxrtt`` collapses (an extreme-loss override being
        cleared) so a newer packet's deadline precedes an older one's.

        ``stamp`` is the engine seq reserved when ``check`` was armed,
        so the coalesced event keeps the exact tie-break position of the
        per-packet event it stands in for.
        """
        handle = self._timer_handle
        if handle is not None:
            if handle.time <= check:
                return
            handle.cancel()
        self._timer_handle = self.sim.schedule(
            check, self._sweep_cb, label=self._label_timer, seq=stamp
        )

    def _sweep_drop_checks(self) -> None:
        """Examine every packet whose ``next_check`` has arrived.

        Due packets are processed in arm-stamp order — the order their
        individual timer events would have popped off the heap — and the
        drop deadline ``sent + mxrtt`` is re-read per packet, because a
        declare earlier in the same sweep can inflate ``mxrtt``
        (backoff doubling, extreme loss) and postpone the rest.  A
        packet found not yet expired re-arms at its new quantized
        deadline; timers never fire early w.r.t. the estimate.
        """
        self._timer_handle = None
        to_be_ack = self.to_be_ack
        if not to_be_ack:
            return
        now = self.sim.now
        due = sorted(
            (entry[3], seq)
            for seq, entry in to_be_ack.items()
            if entry[2] <= now
        )
        for _, seq in due:
            entry = to_be_ack.get(seq)
            if entry is None or entry[2] > now:
                continue  # declared and resent earlier in this sweep
            if now >= entry[0] + self.mxrtt:
                self._declare_drop(seq)
            else:
                to_be_ack[seq] = (
                    entry[0],
                    entry[1],
                    self._quantize(entry[0] + self.mxrtt),
                    self.sim.reserve_seq(),
                )
        if to_be_ack:
            self._arm_drop_timer(
                *min((e[2], e[3]) for e in to_be_ack.values())
            )
        if self.sim.sanitize:
            self._sanitize_check()

    def _declare_drop(self, seq: int) -> None:
        """Table 1, "time > time(n) + mxrtt (drop detected for packet n)"."""
        cwnd_at_send = self.to_be_ack.pop(seq)[1]
        self.stats.drops_detected += 1
        if self.obs is not None:
            self.obs.on_loss(self)
        self._queue_retransmission(seq)
        if seq in self.memorize:
            # Part of an already-reacted-to loss event: no window cut.
            self.stats.memorize_drops += 1
            self.memorize.discard(seq)
            self.cburst += 1
            if (
                self.config.extreme_loss_enabled
                and not self._extreme_active
                and self.cburst > self.cwnd / 2.0 + 1.0
            ):
                self._extreme_loss()
            if not self.memorize:
                self.cburst = 0
                self._extreme_active = False
        else:
            self._new_drop(seq, cwnd_at_send)
        self._flush_cwnd()

    def _new_drop(self, seq: int, cwnd_at_send: float) -> None:
        if self.cwnd <= 1.0 + 1e-9:
            # A new drop while cwnd = 1 (a failed backoff round, or the
            # very first segment lost): halving is meaningless, so double
            # mxrtt instead — Section 3.2's exponential backoff emulation.
            self._double_mxrtt()
            return
        # Lines 8-10: halve relative to the window when the packet was
        # sent (insensitive to detection delay), snapshot the outstanding
        # packets, and lower ssthr so the mode logic lands in congestion
        # avoidance.
        basis = cwnd_at_send if self.config.halve_at_send_cwnd else self.cwnd
        self.cwnd = max(basis / 2.0, 1.0)
        self.ssthr = self.cwnd
        self.stats.window_cuts += 1
        if self.config.enable_memorize:
            self.memorize = set(self.to_be_ack)

    def _double_mxrtt(self) -> None:
        """Exponential backoff: a failed round at cwnd = 1 doubles mxrtt.

        The retransmission itself is not delayed (it goes out as soon as
        the window allows, like TCP's RTO retransmission); only the
        *patience* for its ACK doubles.  Like a standard timeout, the
        slow-start threshold collapses to 2 (flightsize/2 with one packet
        in flight).
        """
        self.stats.backoff_doublings += 1
        self._mxrtt_override = min(self.mxrtt * 2.0, self.config.max_mxrtt)
        self.ssthr = min(self.ssthr, 2.0)
        self.mode = SLOW_START

    def _extreme_loss(self) -> None:
        """Section 3.2: emulate a NewReno/SACK coarse timeout."""
        self.stats.extreme_events += 1
        self._extreme_active = True
        self.ssthr = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.mode = SLOW_START
        new_mxrtt = max(self.mxrtt, self.config.extreme_mxrtt_floor)
        self._mxrtt_override = new_mxrtt
        # Fold the remaining outstanding packets into the loss event so
        # their inevitable timer expirations cause no further response.
        if self.config.enable_memorize:
            self.memorize |= set(self.to_be_ack)
        self._block_sending(new_mxrtt)

    def _block_sending(self, duration: float) -> None:
        until = self.sim.now + duration
        if until <= self._blocked_until:
            return
        self._blocked_until = until
        if self._unblock_handle is not None:
            self._unblock_handle.cancel()
        self._unblock_handle = self.sim.schedule(
            until, self._flush_cwnd, label=self._label_unblock
        )

    # ------------------------------------------------------------------
    # Sanitizer (``Simulator(sanitize=True)``)
    # ------------------------------------------------------------------
    def _sanitize_check(self) -> None:
        """Verify the Table 1/2 structural invariants after an ACK/sweep.

        Called only under ``sim.sanitize`` (read dynamically, so tests
        may flip the flag after building a scenario).  Each check is a
        set operation over the in-flight window — cheap relative to the
        ACK processing that precedes it, but not free, hence the flag.
        """
        to_be_ack = self.to_be_ack
        overlap = self._retx_pending.intersection(to_be_ack)
        if overlap:
            raise InvariantViolation(
                "pr-list-disjoint",
                f"packets {sorted(overlap)!r} are simultaneously awaiting "
                "retransmission (to-be-sent) and in flight (to-be-ack); "
                "Table 1 moves a packet between the lists, never copies",
            )
        stray = self.memorize.difference(to_be_ack)
        if stray:
            raise InvariantViolation(
                "pr-memorize-subset",
                f"memorize holds packets {sorted(stray)!r} that are no "
                "longer in to-be-ack; every removal path must also "
                "discard from memorize",
            )
        if not self.memorize and (self.cburst != 0 or self._extreme_active):
            raise InvariantViolation(
                "pr-cburst-reset",
                f"memorize is empty but cburst={self.cburst} "
                f"extreme_active={self._extreme_active}; both must reset "
                "when the loss event's last packet leaves memorize",
            )
        # The Section 3.2 trigger compares against cwnd at increment
        # time, and cwnd can shrink afterwards (a fresh cut), so the
        # sound run-time bound is against the all-time window peak: a
        # legitimate cburst can never have passed it without firing.
        limit = max(self.cwnd, self.stats.cwnd_peak) / 2.0 + 1.0
        if (
            self.config.extreme_loss_enabled
            and not self._extreme_active
            and self.cburst > limit
        ):
            raise InvariantViolation(
                "pr-cburst-bound",
                f"cburst={self.cburst} exceeds cwnd/2 + 1 (peak-window "
                f"bound {limit!r}) without the extreme-loss response "
                "having fired (Section 3.2 trigger missed)",
            )
        if self.cwnd < 1.0 - 1e-9:
            raise InvariantViolation(
                "pr-cwnd-floor",
                f"cwnd={self.cwnd!r} fell below 1 segment; every window "
                "cut clamps at max(.., 1.0)",
            )

    # ------------------------------------------------------------------
    # Send path (Table 1, flush-cwnd)
    # ------------------------------------------------------------------
    def _queue_retransmission(self, seq: int) -> None:
        if seq not in self._retx_pending:
            self._retx_pending.add(seq)
            heapq.heappush(self._retx_heap, seq)

    def _flush_cwnd(self) -> None:
        if self.sim.now < self._blocked_until:
            return
        window = min(self.cwnd, self._receiver_window_f)
        while window > len(self.to_be_ack):
            seq = self._next_seq()
            if seq is None:
                break
            self._send_segment(seq)

    def _next_seq(self) -> Optional[int]:
        """Smallest eligible sequence number (retransmissions first)."""
        while self._retx_heap:
            seq = self._retx_heap[0]
            if seq not in self._retx_pending:
                heapq.heappop(self._retx_heap)  # cancelled entry
                continue
            heapq.heappop(self._retx_heap)
            self._retx_pending.discard(seq)
            return seq
        total = self.config.total_segments
        if total is not None and self.snd_nxt >= total:
            return None
        return self.snd_nxt

    def _send_segment(self, seq: int) -> None:
        is_retransmit = seq < self.snd_nxt
        if is_retransmit:
            self.stats.retransmits += 1
            self._retransmitted.add(seq)
            if self.obs is not None:
                self.obs.on_retransmit(self)
        else:
            self.snd_nxt += 1
        now = self.sim.now
        check = self._quantize(now + self.mxrtt)
        stamp = self.sim.reserve_seq()
        self.to_be_ack[seq] = (now, self.cwnd, check, stamp)
        heapq.heappush(self._inflight_heap, seq)
        self._arm_drop_timer(check, stamp)
        self.stats.data_packets_sent += 1
        packet = Packet(
            "data",
            src=self.node.name,
            dst=self.peer,
            flow_id=self.flow_id,
            seq=seq,
            size_bytes=self.config.mss_bytes,
            retransmit=is_retransmit,
        )
        self.inject(packet)

    def __repr__(self) -> str:
        return (
            f"<TcpPrSender flow={self.flow_id} mode={self.mode} "
            f"cwnd={self.cwnd:.2f} inflight={len(self.to_be_ack)} "
            f"mxrtt={self.mxrtt:.3f}>"
        )
