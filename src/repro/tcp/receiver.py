"""The TCP receiver: cumulative ACKs, SACK (RFC 2018), DSACK (RFC 2883).

One receiver implementation serves every sender in this repository —
including TCP-PR, which the paper emphasizes "neither requires changes to
the TCP receiver nor uses any special TCP header option".

Sequence numbers count segments.  The receiver ACKs every arriving data
segment immediately (no delayed ACKs, matching ns-2's default Sink and the
per-ACK window arithmetic in the paper's pseudo-code).

Out-of-order data is tracked as contiguous *runs* maintained
incrementally (merge-on-insert), so building the SACK option for an ACK
costs O(number of reported blocks), not O(buffered segments) — this
matters because heavy-reordering experiments hold hundreds of segments
above the cumulative point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.net.node import Agent
from repro.net.packet import ACK_SIZE_BYTES, Packet

if TYPE_CHECKING:
    from repro.net.node import Node
    from repro.sim.engine import Simulator

SackBlock = Tuple[int, int]


class TcpReceiver(Agent):
    """Receiving endpoint of a TCP flow.

    Args:
        sim: Owning simulator.
        node: Node this receiver is attached to.
        flow_id: Flow identifier shared with the sender.
        peer: Name of the sender's node (ACK destination).
        sack: Generate SACK blocks for out-of-order data.
        dsack: Report duplicate arrivals with a DSACK block.
        max_sack_blocks: Cap on SACK blocks per ACK (the TCP option space
            fits 3 when timestamps are in use, 4 otherwise).
        delayed_ack: RFC 1122 delayed ACKs — acknowledge every second
            in-order segment, or after ``delack_timeout``.  Out-of-order
            arrivals, hole fills, and duplicates are always acknowledged
            immediately (RFC 5681).  Off by default, matching ns-2's
            per-packet Sink and the paper's per-ACK window arithmetic.
        delack_timeout: Delayed-ACK timer (RFC 1122 caps it at 500 ms;
            200 ms is the common implementation value).

    Attributes:
        rcv_nxt: Next expected segment = cumulative ACK value.
        duplicates: Count of duplicate segment arrivals.
        total_received: All data arrivals, including duplicates.
    """

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        flow_id: int,
        peer: str,
        sack: bool = True,
        dsack: bool = True,
        max_sack_blocks: int = 3,
        delayed_ack: bool = False,
        delack_timeout: float = 0.2,
    ) -> None:
        super().__init__(sim, node, flow_id)
        self.peer = peer
        self.sack_enabled = sack
        self.dsack_enabled = dsack
        self.max_sack_blocks = max_sack_blocks
        if not 0.0 < delack_timeout <= 0.5:
            raise ValueError(
                f"delack_timeout must be in (0, 0.5] s, got {delack_timeout}"
            )
        self.delayed_ack_enabled = delayed_ack
        self.delack_timeout = delack_timeout
        self._pending_ack_for: Optional[Packet] = None
        self._delack_handle = None
        self._label_delack = f"delack f{flow_id}"
        self.delayed_acks_sent = 0
        self.rcv_nxt = 0
        #: Segments held above rcv_nxt (for duplicate detection).
        self._buffered: Set[int] = set()
        #: Contiguous runs of buffered segments: start -> end and end -> start.
        self._run_start_to_end: Dict[int, int] = {}
        self._run_end_to_start: Dict[int, int] = {}
        self.duplicates = 0
        self.total_received = 0
        self.acks_sent = 0
        self.reordered_arrivals = 0
        self._max_seq_seen = -1
        #: Metrics probe installed by repro.obs (None = not observed).
        self.obs = None
        #: Round-robin cursor so every SACK run gets reported periodically
        #: even when more runs exist than option slots (RFC 2018 §4).
        self._sack_rotation = 0

    # ------------------------------------------------------------------
    @property
    def delivered(self) -> int:
        """Segments delivered to the application in order."""
        return self.rcv_nxt

    @property
    def buffered_segments(self) -> int:
        """Out-of-order segments currently held above rcv_nxt."""
        return len(self._buffered)

    def sack_runs(self) -> List[SackBlock]:
        """All current out-of-order runs (unordered; for tests/diagnostics)."""
        return sorted(self._run_start_to_end.items())

    def receive(self, packet: Packet) -> None:
        if not packet.is_data:
            return  # a stray ACK routed here; receivers ignore it
        self.total_received += 1
        seq = packet.seq
        if seq < self._max_seq_seen:
            self.reordered_arrivals += 1
            if self.obs is not None:
                self.obs.reorder(self._max_seq_seen - seq)
        else:
            self._max_seq_seen = seq

        duplicate = seq < self.rcv_nxt or seq in self._buffered
        trigger_run: Optional[SackBlock] = None
        cumulative_before = self.rcv_nxt
        if duplicate:
            self.duplicates += 1
        else:
            trigger_run = self._insert(seq)
            if self.rcv_nxt in self._run_start_to_end:
                end = self._run_start_to_end.pop(self.rcv_nxt)
                del self._run_end_to_start[end]
                for delivered_seq in range(self.rcv_nxt, end):
                    self._buffered.discard(delivered_seq)
                self.rcv_nxt = end
                trigger_run = None
        filled_hole = self.rcv_nxt > cumulative_before + 1
        if self.obs is not None and self.rcv_nxt > cumulative_before:
            self.obs.delivered(self.rcv_nxt)
        self._send_ack(packet, duplicate, trigger_run, filled_hole)

    # ------------------------------------------------------------------
    def _insert(self, seq: int) -> SackBlock:
        """Buffer ``seq``, merging adjacent runs; returns the merged run."""
        self._buffered.add(seq)
        start, end = seq, seq + 1
        left_start = self._run_end_to_start.pop(seq, None)
        if left_start is not None:
            del self._run_start_to_end[left_start]
            start = left_start
        right_end = self._run_start_to_end.pop(seq + 1, None)
        if right_end is not None:
            del self._run_end_to_start[right_end]
            end = right_end
        self._run_start_to_end[start] = end
        self._run_end_to_start[end] = start
        return (start, end)

    # ------------------------------------------------------------------
    # Delayed ACKs
    # ------------------------------------------------------------------
    def _maybe_delay_ack(
        self,
        data_packet: Packet,
        duplicate: bool,
        trigger_run: Optional[SackBlock],
        filled_hole: bool,
    ) -> bool:
        """Apply RFC 1122/5681 delayed-ACK rules; True if the ACK is held."""
        if not self.delayed_ack_enabled:
            return False
        out_of_order = (
            duplicate
            or filled_hole
            or trigger_run is not None
            or bool(self._buffered)
        )
        if out_of_order:
            # Out-of-order / duplicate / hole-fill: ACK immediately, and
            # it supersedes any held ACK.
            self._cancel_delack()
            return False
        if self._pending_ack_for is not None:
            # Second in-order segment: ACK now (covers both).
            self._cancel_delack()
            return False
        self._pending_ack_for = data_packet
        self._delack_handle = self.sim.schedule_in(
            self.delack_timeout, self._delack_fire, label=self._label_delack
        )
        return True

    def _cancel_delack(self) -> None:
        self._pending_ack_for = None
        if self._delack_handle is not None:
            self._delack_handle.cancel()
            self._delack_handle = None

    def _delack_fire(self) -> None:
        pending = self._pending_ack_for
        self._delack_handle = None
        self._pending_ack_for = None
        if pending is not None:
            self.delayed_acks_sent += 1
            self._emit_ack(pending, duplicate=False, trigger_run=None)

    def _send_ack(
        self,
        data_packet: Packet,
        duplicate: bool,
        trigger_run: Optional[SackBlock],
        filled_hole: bool = False,
    ) -> None:
        if self._maybe_delay_ack(data_packet, duplicate, trigger_run, filled_hole):
            return
        self._emit_ack(data_packet, duplicate, trigger_run)

    def _emit_ack(
        self,
        data_packet: Packet,
        duplicate: bool,
        trigger_run: Optional[SackBlock],
    ) -> None:
        sack_blocks: Optional[List[SackBlock]] = None
        if self.sack_enabled and self._run_start_to_end:
            sack_blocks = self._build_sack_blocks(trigger_run)
        dsack = None
        if self.dsack_enabled and duplicate:
            dsack = (data_packet.seq, data_packet.seq + 1)
        ack = Packet(
            "ack",
            src=self.node.name,
            dst=self.peer,
            flow_id=self.flow_id,
            seq=data_packet.seq,
            ack=self.rcv_nxt,
            size_bytes=ACK_SIZE_BYTES,
            sack_blocks=sack_blocks,
            dsack=dsack,
            ts_echo=data_packet.ts_val,
        )
        self.acks_sent += 1
        self.inject(ack)

    def _build_sack_blocks(
        self, trigger_run: Optional[SackBlock]
    ) -> List[SackBlock]:
        """First block = the run containing the triggering segment (RFC
        2018), remaining slots cycle round-robin through the other runs
        so no run is starved under heavy reordering."""
        blocks: List[SackBlock] = []
        if trigger_run is not None:
            blocks.append(trigger_run)
        runs = self._run_start_to_end
        if len(runs) > len(blocks):
            starts = list(runs)
            attempts = 0
            while len(blocks) < self.max_sack_blocks and attempts < len(starts):
                start = starts[self._sack_rotation % len(starts)]
                self._sack_rotation += 1
                attempts += 1
                block = (start, runs[start])
                if block not in blocks:
                    blocks.append(block)
        return blocks

    def __repr__(self) -> str:
        return (
            f"<TcpReceiver flow={self.flow_id} rcv_nxt={self.rcv_nxt} "
            f"ooo={len(self._buffered)} dup={self.duplicates}>"
        )
