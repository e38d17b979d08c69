"""Sampling monitors.

Monitors poll state on a fixed interval (they never perturb the
simulation's outcome, though their sampling events do appear in the
event count — the push-based probes of :mod:`repro.obs.instrument` are
the event-neutral alternative).  :class:`FlowThroughputMonitor` provides
the "data delivered during the last N seconds" measurement the paper's
fairness experiments use.

New code should attach monitors through
:class:`repro.obs.instrument.Instrumentation` rather than the raw
constructors, so one object owns every observer of a run.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, List

from repro.analysis.throughput import FlowSample, goodput_bps
from repro.obs.trace import FaultRecord

if TYPE_CHECKING:
    from repro.net.queues import Queue
    from repro.sim.engine import Simulator
    from repro.tcp.receiver import TcpReceiver


class FlowThroughputMonitor:
    """Samples a receiver's in-order delivery counter over time.

    Args:
        sim: Owning simulator.
        receiver: The flow's :class:`~repro.tcp.receiver.TcpReceiver`.
        mss_bytes: Segment size for byte conversion.
        interval: Sampling period in seconds.
    """

    def __init__(
        self,
        sim: "Simulator",
        receiver: "TcpReceiver",
        mss_bytes: int = 1000,
        interval: float = 0.5,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.receiver = receiver
        self.mss_bytes = mss_bytes
        self.interval = interval
        self.samples: List[FlowSample] = [FlowSample(sim.now, receiver.delivered)]
        # Parallel time array so sample_at_or_before is one bisect, not a
        # per-call list rebuild (O(n^2) across a sweep's many lookups).
        self._times: List[float] = [sim.now]
        self._schedule()

    def _schedule(self) -> None:
        self.sim.post_in(self.interval, self._sample, None, "flow monitor")

    def _sample(self) -> None:
        self.samples.append(FlowSample(self.sim.now, self.receiver.delivered))
        self._times.append(self.sim.now)
        self._schedule()

    # ------------------------------------------------------------------
    def sample_at_or_before(self, time: float) -> FlowSample:
        """Latest recorded sample with ``sample.time <= time``."""
        index = bisect_left(self._times, time + 1e-12)
        if index == 0:
            return self.samples[0]
        return self.samples[index - 1]

    def final_sample(self) -> FlowSample:
        """The receiver's state *now* (not just the last poll)."""
        return FlowSample(self.sim.now, self.receiver.delivered)

    def goodput_bps(self, start: float, end: float) -> float:
        """Average goodput between two times (nearest samples used)."""
        start_sample = self.sample_at_or_before(start)
        end_sample = (
            self.final_sample() if end >= self.sim.now else self.sample_at_or_before(end)
        )
        return goodput_bps(start_sample, end_sample, self.mss_bytes)

    def last_window_goodput_bps(self, window: float) -> float:
        """Goodput over the final ``window`` seconds of the run so far."""
        end = self.sim.now
        return self.goodput_bps(max(0.0, end - window), end)


class CwndMonitor:
    """Samples any object's ``cwnd`` attribute over time."""

    def __init__(self, sim: "Simulator", sender, interval: float = 0.1) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.sender = sender
        self.interval = interval
        self.times: List[float] = []
        self.values: List[float] = []
        self._sample()

    def _sample(self) -> None:
        self.times.append(self.sim.now)
        self.values.append(float(self.sender.cwnd))
        self.sim.post_in(self.interval, self._sample, None, "cwnd monitor")

    def max_cwnd(self) -> float:
        return max(self.values)

    def mean_cwnd(self) -> float:
        return sum(self.values) / len(self.values)


class FaultTimelineMonitor:
    """Records fault-injection state changes as an injector applies them.

    Pass an instance as ``monitor=`` to
    :class:`~repro.faults.injector.Injector` (or obtain one from
    :meth:`repro.obs.instrument.Instrumentation.fault_timeline`); each
    applied event becomes a :class:`~repro.obs.trace.FaultRecord`, so an
    experiment's fault timeline can be lined up against its packet trace
    and throughput samples.
    """

    def __init__(self) -> None:
        self.records: List[FaultRecord] = []

    def record(self, time: float, kind: str, target: str, detail: str) -> None:
        self.records.append(
            FaultRecord(time=time, kind=kind, target=target, detail=detail)
        )

    def of_kind(self, kind: str) -> List[FaultRecord]:
        return [record for record in self.records if record.kind == kind]

    def between(self, start: float, end: float) -> List[FaultRecord]:
        """Records applied in ``[start, end)``."""
        return [
            record for record in self.records if start <= record.time < end
        ]

    def timeline(self) -> str:
        """A human-readable one-line-per-fault rendering."""
        if not self.records:
            return "(no faults applied)"
        return "\n".join(
            f"t={record.time:9.4f}  {record.kind:<14} {record.target}: "
            f"{record.detail}"
            for record in self.records
        )


class QueueMonitor:
    """Samples a queue's occupancy over time."""

    def __init__(self, sim: "Simulator", queue: "Queue", interval: float = 0.1) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.queue = queue
        self.interval = interval
        self.times: List[float] = []
        self.occupancies: List[int] = []
        self._sample()

    def _sample(self) -> None:
        self.times.append(self.sim.now)
        self.occupancies.append(self.queue.occupancy)
        self.sim.post_in(self.interval, self._sample, None, "queue monitor")

    def mean_occupancy(self) -> float:
        return sum(self.occupancies) / len(self.occupancies)

    def max_occupancy(self) -> int:
        return max(self.occupancies)
