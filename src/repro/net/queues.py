"""Link queues: DropTail (the paper's model) and RED (extension).

A queue buffers packets awaiting transmission on a link.  Capacity is
expressed in packets, matching ns-2's default and the paper's "queue has a
size of 100 packets".
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Optional

from repro.net.packet import Packet


class Queue:
    """Abstract link queue.

    Subclasses implement :meth:`push`; :meth:`pop` is shared FIFO service.

    Attributes:
        capacity: Maximum number of buffered packets.
        drops: Count of packets rejected by this queue.
        enqueued: Count of packets accepted.
    """

    # Slotted so the compiled engine (repro._cext._core) can resolve
    # fixed attribute offsets for its DropTail fast path; also one less
    # dict per link on the pure engine.
    __slots__ = (
        "capacity",
        "_buffer",
        "drops",
        "enqueued",
        "max_occupancy",
        "obs",
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[Packet] = deque()
        self.drops = 0
        self.enqueued = 0
        self.max_occupancy = 0
        #: Metrics probe installed by repro.obs (None = not observed).
        #: The owning link shares its probe with the queue, since a
        #: queue has no simulator reference of its own.
        self.obs = None

    def push(self, packet: Packet) -> bool:
        """Try to buffer ``packet``; return False (and count a drop) if rejected."""
        raise NotImplementedError

    def pop(self) -> Optional[Packet]:
        """Dequeue the next packet in FIFO order, or None if empty."""
        if self._buffer:
            packet = self._buffer.popleft()
            if self.obs is not None:
                self.obs.queue_depth()
            return packet
        return None

    def _accept(self, packet: Packet) -> bool:
        self._buffer.append(packet)
        self.enqueued += 1
        if len(self._buffer) > self.max_occupancy:
            self.max_occupancy = len(self._buffer)
        if self.obs is not None:
            self.obs.queue_depth()
        return True

    def _reject(self) -> None:
        """Count (and report) one rejected arrival."""
        self.drops += 1
        if self.obs is not None:
            self.obs.queue_drop()

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def occupancy(self) -> int:
        return len(self._buffer)


class DropTailQueue(Queue):
    """FIFO queue that drops arrivals once full — the paper's loss model."""

    __slots__ = ()

    def push(self, packet: Packet) -> bool:
        if len(self._buffer) >= self.capacity:
            self._reject()
            return False
        return self._accept(packet)


class REDQueue(Queue):
    """Random Early Detection (Floyd & Jacobson 1993), gentle variant.

    Provided as an AQM extension; the paper's experiments use DropTail.
    Parameters follow the classic recommendations: drop probability ramps
    linearly from 0 at ``min_thresh`` to ``max_p`` at ``max_thresh``, then
    (gentle RED) from ``max_p`` to 1 at ``2 * max_thresh``.
    """

    __slots__ = (
        "min_thresh",
        "max_thresh",
        "max_p",
        "weight",
        "avg",
        "_count_since_drop",
        "_rng",
    )

    def __init__(
        self,
        capacity: int,
        min_thresh: Optional[float] = None,
        max_thresh: Optional[float] = None,
        max_p: float = 0.1,
        weight: float = 0.002,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(capacity)
        self.min_thresh = min_thresh if min_thresh is not None else capacity / 12.0
        self.max_thresh = max_thresh if max_thresh is not None else capacity / 4.0
        if self.min_thresh >= self.max_thresh:
            raise ValueError("RED requires min_thresh < max_thresh")
        self.max_p = max_p
        self.weight = weight
        self.avg = 0.0
        self._count_since_drop = -1
        # lint: allow-module-random(fixed-seed fallback for standalone use; scenarios pass a registry stream)
        self._rng = rng if rng is not None else random.Random(0)

    def push(self, packet: Packet) -> bool:
        self.avg = (1 - self.weight) * self.avg + self.weight * len(self._buffer)
        if len(self._buffer) >= self.capacity:
            self._reject()
            self._count_since_drop = 0
            return False
        drop_p = self._drop_probability()
        if drop_p > 0:
            self._count_since_drop += 1
            # Uniformize inter-drop gaps, per the original RED paper.
            denominator = max(1e-12, 1 - self._count_since_drop * drop_p)
            effective_p = min(1.0, drop_p / denominator)
            if self._rng.random() < effective_p:
                self._reject()
                self._count_since_drop = 0
                return False
        else:
            self._count_since_drop = -1
        return self._accept(packet)

    def _drop_probability(self) -> float:
        if self.avg < self.min_thresh:
            return 0.0
        if self.avg < self.max_thresh:
            frac = (self.avg - self.min_thresh) / (self.max_thresh - self.min_thresh)
            return frac * self.max_p
        if self.avg < 2 * self.max_thresh:  # gentle region
            frac = (self.avg - self.max_thresh) / self.max_thresh
            return self.max_p + frac * (1 - self.max_p)
        return 1.0

    def __repr__(self) -> str:
        return (
            f"<REDQueue cap={self.capacity} avg={self.avg:.2f} "
            f"occ={len(self._buffer)} drops={self.drops}>"
        )


def queue_from_spec(spec: "int | Queue") -> Queue:
    """Coerce a queue spec (an int capacity or a Queue instance) to a Queue."""
    if isinstance(spec, Queue):
        return spec
    if isinstance(spec, int) and not isinstance(spec, bool):
        return DropTailQueue(spec)
    raise TypeError(f"queue spec must be int or Queue, got {type(spec).__name__}")


def bandwidth_delay_product_packets(
    bandwidth_bps: float, rtt_seconds: float, segment_bytes: int = 1000
) -> int:
    """Bandwidth-delay product in whole segments (handy for sizing queues)."""
    return max(1, math.ceil(bandwidth_bps * rtt_seconds / (8 * segment_bytes)))
