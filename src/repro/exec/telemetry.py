"""Sweep telemetry: why each cell behaved the way it did.

A sweep's assembled figure says *what* each cell produced; the
telemetry carried on :attr:`~repro.exec.runner.RunStats.telemetry` says
*why* — whether the cell was served from cache, how many attempts it
took, whether it timed out, how long it ran, and (when metric
collection was active) the per-metric summaries its instrumentation
gathered inside the worker.  The CLI's ``--metrics-out`` flag
serializes all of this, plus the full metric records, as one
``repro.obs/v1`` stream.

Packet events, the bulk of a traced sweep, are not held as records:
:attr:`SweepTelemetry.traces` keeps the worker tracer's
:class:`~repro.obs.trace.TraceEvent` tuples, rendered one at a time on
export.  Every stream is in cell order, whatever completed first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.obs.trace import TraceEvent


@dataclass(frozen=True)
class CellTelemetry:
    """One cell's execution story.

    Attributes:
        key: The cell's sweep key.
        cached: Served from the result cache (no execution; the other
            fields are zeroed, and no fresh metrics exist for it).
        attempts: Executions including retries (0 when cached).
        timed_out: The *terminal* attempt hit the wall-clock ceiling.
        error: ``"ErrorName: message"`` for a terminally failed cell.
        wall_time: Worker wall-clock seconds across all attempts.
        metrics: Per-metric summaries from the cell's instrumentation
            (empty unless the runner collected metrics).
    """

    key: Any
    cached: bool
    attempts: int
    timed_out: bool
    error: Optional[str]
    wall_time: float
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """This cell as a ``repro.obs/v1`` ``cell`` record."""
        from repro.obs.export import key_to_str

        return {
            "record": "cell",
            "key": key_to_str(self.key),
            "cached": self.cached,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
            "error": self.error,
            "wall_time": self.wall_time,
            "metrics": self.metrics,
        }


@dataclass
class SweepTelemetry:
    """Everything one sweep reported about itself.

    Attributes:
        cells: Per-cell telemetry, in cell order.
        collected: Full ``repro.obs/v1`` records gathered inside the
            workers (metric / fault records, each tagged with its
            ``cell`` key); empty unless collection was enabled.
        traces: ``(cell tag, packet events)`` per collecting cell: the
            ``trace`` records :meth:`trace_records` yields, unrendered.
        total / cached / executed / failed / timed_out / retried /
        elapsed / jobs: The sweep-level counters, mirroring
            :class:`~repro.exec.runner.RunStats`.
    """

    cells: List[CellTelemetry] = field(default_factory=list)
    collected: List[Dict[str, Any]] = field(default_factory=list)
    traces: List[Tuple[str, List[TraceEvent]]] = field(default_factory=list)
    total: int = 0
    cached: int = 0
    executed: int = 0
    failed: int = 0
    timed_out: int = 0
    retried: int = 0
    elapsed: float = 0.0
    jobs: int = 1

    def sweep_record(self) -> Dict[str, Any]:
        """The aggregate counters as a ``repro.obs/v1`` ``sweep`` record."""
        return {
            "record": "sweep",
            "total": self.total,
            "cached": self.cached,
            "executed": self.executed,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "retried": self.retried,
            "elapsed": self.elapsed,
            "jobs": self.jobs,
        }

    def metric_records(self) -> List[Dict[str, Any]]:
        """The ``--metrics-out`` stream: metrics, cells, sweep (no header)."""
        records = [
            record for record in self.collected if record.get("record") == "metric"
        ]
        records.extend(cell.to_record() for cell in self.cells)
        records.append(self.sweep_record())
        return records

    def trace_records(self) -> Iterator[Dict[str, Any]]:
        """The ``--trace-out`` stream (no header), lazily: cell by cell,
        a cell's packet events first and its fault records after."""
        from repro.obs.export import trace_event_record

        return self._trace_stream(trace_event_record)

    def trace_lines(self) -> Iterator[Union[str, Dict[str, Any]]]:
        """:meth:`trace_records` as :func:`~repro.obs.export.write_jsonl`
        items: a packet event is its finished line, never a dict."""
        from repro.obs.export import trace_line

        return self._trace_stream(trace_line)

    def _trace_stream(self, render: Callable[[TraceEvent, str], Any]) -> Iterator[Any]:
        faults = [r for r in self.collected if r.get("record") == "fault"]
        for tag, events in self.traces:
            for event in events:
                yield render(event, tag)
            yield from (r for r in faults if r.get("cell") == tag)

    def cell(self, key: Any) -> Optional[CellTelemetry]:
        """The telemetry for one cell key, or None."""
        for entry in self.cells:
            if entry.key == key:
                return entry
        return None


def summaries_from_records(
    records: List[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Compact per-metric aggregates from full ``metric`` records.

    Mirrors :meth:`repro.obs.registry.MetricsRegistry.summaries` but
    works on the plain-dict records that crossed the process boundary.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.get("record") != "metric":
            continue
        labels = record.get("labels") or {}
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        name = f"{record['name']}{{{label_text}}}"
        kind = record.get("kind")
        if kind in ("counter", "gauge"):
            out[name] = {"kind": kind, "value": record.get("value")}
        elif kind == "histogram":
            count = record.get("count") or 0
            out[name] = {
                "kind": kind,
                "count": count,
                "mean": (record.get("sum", 0.0) / count) if count else None,
                "min": record.get("min"),
                "max": record.get("max"),
            }
        elif kind == "timeseries":
            values = record.get("values") or []
            out[name] = {
                "kind": kind,
                "n": len(values),
                "last": values[-1] if values else None,
                "min": min(values) if values else None,
                "max": max(values) if values else None,
            }
    return out
