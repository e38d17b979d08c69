"""Time-delayed fast recovery (TD-FR).

First proposed by Paxson [18] and analysed by Blanton & Allman [3]; the
paper describes it as: *"It sets a timer when the first DUPACK is
observed.  If DUPACKs persist longer than a threshold, then fast
retransmit is entered and the congestion window is reduced.  The timer
threshold is max(RTT/2, DT), where DT is the difference between the
arrival of the first and third DUPACK."*

Until the third duplicate ACK arrives the threshold is unknown, so the
decision point is evaluated when the third DUPACK lands; if the deadline
``t1 + max(RTT/2, t3 - t1)`` is already past, fast retransmit fires
immediately, otherwise a timer is armed for the remainder.  A cumulative
ACK advancing past the hole disarms everything.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet
from repro.tcp.newreno import NewRenoSender


class TdfrSender(NewRenoSender):
    """NewReno with time-delayed fast recovery."""

    variant = "tdfr"

    #: RTT fallback used before the first RTT sample exists.
    DEFAULT_RTT = 0.5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._first_dup_time: Optional[float] = None
        self._third_dup_time: Optional[float] = None
        self._armed_una: Optional[int] = None
        self._fr_timer = None
        self._label_tdfr = f"tdfr f{self.flow_id}"
        self.stats.extra["tdfr_delayed_triggers"] = 0
        self.stats.extra["tdfr_cancelled_triggers"] = 0

    # ------------------------------------------------------------------
    def _on_dupack_event(self, packet: Packet) -> None:
        if self.in_recovery:
            self.cwnd += 1  # NewReno window inflation
            return
        if self.dupacks == 1:
            self._first_dup_time = self.sim.now
            self._third_dup_time = None
        if self.config.limited_transmit and self.dupacks <= 2:
            self._limited_transmit_allowance = min(self.dupacks, 2)
        if self.dupacks == 3 and self._first_dup_time is not None:
            # Blanton & Allman's reading: when the third DUPACK arrives,
            # wait a further max(RTT/2, DT) before retransmitting, DT
            # being the spread between the first and third DUPACKs.
            self._third_dup_time = self.sim.now
            rtt = self.srtt if self.srtt is not None else self.DEFAULT_RTT
            threshold = max(rtt / 2.0, self._third_dup_time - self._first_dup_time)
            self._arm(self._third_dup_time + threshold)

    def _arm(self, deadline: float) -> None:
        self._disarm()
        self._armed_una = self.snd_una
        self._fr_timer = self.sim.schedule(
            deadline, self._on_fr_timer, label=self._label_tdfr
        )

    def _disarm(self) -> None:
        if self._fr_timer is not None:
            self._fr_timer.cancel()
            self._fr_timer = None
        self._armed_una = None

    def _on_fr_timer(self) -> None:
        self._fr_timer = None
        if self.in_recovery or self._armed_una != self.snd_una or self.dupacks < 3:
            # The hole filled (or state changed) before the deadline.
            self.stats.extra["tdfr_cancelled_triggers"] += 1
            return
        self.stats.extra["tdfr_delayed_triggers"] += 1
        self._trigger()
        self._send_available()

    def _trigger(self) -> None:
        self._disarm()
        self._enter_fast_recovery(inflate=True)

    # ------------------------------------------------------------------
    def _after_new_ack(self, packet: Packet, newly_acked: int) -> None:
        super()._after_new_ack(packet, newly_acked)
        # Cumulative progress: the suspected hole was filled.
        self._disarm()
        if not self.in_recovery:
            self._first_dup_time = None
            self._third_dup_time = None

    def _on_timeout_hook(self) -> None:
        super()._on_timeout_hook()
        self._disarm()
        self._first_dup_time = None
        self._third_dup_time = None
