"""Parsing ``repro.obs/v1`` trace streams into per-flow event views.

A :class:`TraceStream` is the lossless form of a trace file: re-emitting
it (``to_records``/``write``) reproduces every record verbatim,
bit-identically — the golden-schema guarantee tests pin — and it exposes
typed per-flow views (:class:`FlowTrace`) with events ordered by the
stable ``(flow_seq, time)`` join key rather than by emission order.

Built from records, it keeps the list it was given.  Parsed from a file
(:meth:`TraceStream.from_jsonl`), it keeps the parsed events and the
path, not the record dicts: ``records``, ``to_records()`` and
``write()`` read the file again, so it must still be there, unchanged.

Sweep traces interleave cells: every record collected inside a sweep
cell carries a ``cell`` tag, so flows are keyed by :class:`FlowKey` —
``(cell, flow_id)`` — and two cells' flow 1 never alias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from sys import intern
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs.export import (
    iter_jsonl,
    trace_event_from_record,
    trace_event_record,
    write_jsonl,
)
from repro.obs.trace import FaultRecord, PacketTracer, TraceEvent

PathLike = Union[str, Path]


@dataclass(frozen=True, order=True)
class FlowKey:
    """Stable identity of one flow inside one sweep cell.

    ``cell`` is the sweep-cell tag (empty string for single-run traces);
    ``flow_id`` the transport flow id the packets carried.
    """

    cell: str
    flow_id: int

    def __str__(self) -> str:
        if self.cell:
            return f"{self.cell}/flow={self.flow_id}"
        return f"flow={self.flow_id}"


@dataclass
class FlowTrace:
    """One flow's events, split by kind and ordered by ``(flow_seq, time)``.

    Attributes:
        key: The owning :class:`FlowKey`.
        sends: Data segments injected at the origin (``send``/``data``).
        arrivals: Data segments delivered to a watched node
            (``recv``/``data``) — the receiver's view of the flow.
        ack_arrivals: ACKs delivered back to a watched node
            (``recv``/``ack``) — the sender's view of the return path.
        drops: Packets lost on watched links (any packet kind).
    """

    key: FlowKey
    sends: List[TraceEvent] = field(default_factory=list)
    arrivals: List[TraceEvent] = field(default_factory=list)
    ack_arrivals: List[TraceEvent] = field(default_factory=list)
    drops: List[TraceEvent] = field(default_factory=list)

    def arrival_seqs(self) -> List[int]:
        """Data segment numbers in (join-key) arrival order."""
        return [event.seq for event in self.arrivals]

    def sort(self) -> None:
        """Order every event list by the stable join key."""
        for events in (self.sends, self.arrivals, self.ack_arrivals, self.drops):
            events.sort(key=lambda event: (event.flow_seq, event.time))


class _JsonlFile:
    """A JSONL file as a re-iterable of records: each pass re-reads it."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter_jsonl(self.path)


class TraceStream:
    """A parsed ``repro.obs/v1`` record stream with per-flow trace views.

    Construction never drops records: metric/cell/sweep/header records
    ride along untouched, which is what makes
    :meth:`to_records`/:meth:`write` bit-identical re-emission.
    """

    def __init__(self, records: Iterable[Dict[str, Any]]) -> None:
        # Every record, verbatim: a list, or the file to re-read for them.
        self._source: Union[List[Dict[str, Any]], _JsonlFile] = (
            records if isinstance(records, _JsonlFile) else list(records)
        )
        self._count = 0
        #: Parsed (event, cell) pairs for the ``trace`` records.
        self.events: List[Tuple[TraceEvent, str]] = []
        #: Parsed fault records with their cell tags.
        self.faults: List[Tuple[FaultRecord, str]] = []
        for record in self._source:
            self._count += 1
            kind = record.get("record")
            if kind == "trace":
                cell = intern(str(record.get("cell", "") or ""))
                self.events.append((trace_event_from_record(record), cell))
            elif kind == "fault":
                cell = str(record.get("cell", "") or "")
                self.faults.append(
                    (
                        FaultRecord(
                            time=float(record["time"]),
                            kind=str(record["kind"]),
                            target=str(record.get("target", "")),
                            detail=str(record.get("detail", "")),
                        ),
                        cell,
                    )
                )
        self._flows: Optional[Dict[FlowKey, FlowTrace]] = None

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Every record, verbatim, in stream order."""
        source = self._source
        return list(source) if isinstance(source, _JsonlFile) else source

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_jsonl(cls, path: PathLike) -> "TraceStream":
        """Parse a ``repro.obs/v1`` JSONL file, one record at a time."""
        return cls(_JsonlFile(path))

    @classmethod
    def from_tracer(cls, tracer: PacketTracer) -> "TraceStream":
        """Wrap a live :class:`~repro.obs.trace.PacketTracer`'s events."""
        return cls(trace_event_record(event) for event in tracer.events)

    # ------------------------------------------------------------------
    # Flow views
    # ------------------------------------------------------------------
    def flows(self) -> Dict[FlowKey, FlowTrace]:
        """Per-flow event views, ordered by the stable join key."""
        if self._flows is not None:
            return self._flows
        flows: Dict[FlowKey, FlowTrace] = {}
        for event, cell in self.events:
            key = FlowKey(cell=cell, flow_id=event.flow_id)
            flow = flows.get(key)
            if flow is None:
                flow = flows[key] = FlowTrace(key=key)
            if event.kind == "send" and event.packet_kind == "data":
                flow.sends.append(event)
            elif event.kind == "recv" and event.packet_kind == "data":
                flow.arrivals.append(event)
            elif event.kind == "recv" and event.packet_kind == "ack":
                flow.ack_arrivals.append(event)
            elif event.kind == "drop":
                flow.drops.append(event)
        for flow in flows.values():
            flow.sort()
        self._flows = flows
        return flows

    def flow(self, flow_id: int, cell: str = "") -> FlowTrace:
        """The view for one flow (raises ``KeyError`` when absent)."""
        return self.flows()[FlowKey(cell=cell, flow_id=flow_id)]

    # ------------------------------------------------------------------
    # Re-emission
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        """The stream's records, verbatim (lossless round-trip)."""
        return list(self._source)

    def write(self, path: PathLike, **header_fields: Any) -> Path:
        """Re-emit the stream as JSONL (bit-identical for parsed files)."""
        return write_jsonl(self.records, path, **header_fields)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (
            f"<TraceStream records={len(self)} "
            f"events={len(self.events)} flows={len(self.flows())}>"
        )
