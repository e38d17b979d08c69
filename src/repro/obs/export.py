"""Structured export: ``repro.obs/v1`` records to JSONL / CSV.

Every export — a registry, a packet trace, a fault timeline, sweep
telemetry — is a stream of flat JSON objects sharing one envelope
field, ``record``, which names the record type:

``header``
    First line of every file: ``{"record": "header", "schema":
    "repro.obs/v1", ...}``.  Consumers should check ``schema``.
``metric``
    One metric's full state: ``kind`` (counter / gauge / histogram /
    timeseries), ``name``, ``labels``, and the kind-specific payload
    (``value``, ``buckets``/``counts``/``count``/``sum``/``min``/``max``,
    or parallel ``times``/``values`` arrays).  Records collected inside a
    sweep cell additionally carry ``cell`` (the cell key, JSON-rendered).
``trace``
    One :class:`~repro.obs.trace.TraceEvent`: ``time``, ``kind``
    (send / recv / drop), ``where``, ``packet_uid``, ``flow_id``,
    ``flow_seq`` (monotonic per-flow event counter — the stable join
    key), ``packet_kind``, ``seq``, ``ack``, ``retransmit``, ``path``.
    See ``docs/TRACES.md`` for the analyzer-facing semantics.
``fault``
    One :class:`~repro.obs.trace.FaultRecord`: ``time``, ``kind``,
    ``target``, ``detail``.
``cell``
    One sweep cell's telemetry: ``key``, ``cached``, ``attempts``,
    ``timed_out``, ``error``, ``wall_time``, ``metrics`` (per-metric
    summaries, no sample arrays).
``sweep``
    One per sweep: the aggregate counters (``total``, ``cached``,
    ``executed``, ``failed``, ``timed_out``, ``retried``, ``elapsed``,
    ``jobs``).

The schema is append-only: new record types and new optional fields may
appear under ``repro.obs/v1``; existing fields never change meaning.
See ``docs/OBSERVABILITY.md`` for the full field tables.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from itertools import chain, islice
from math import isfinite
from pathlib import Path
from sys import intern
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import FaultRecord, TraceEvent

#: The schema identifier written into every header record.
SCHEMA = "repro.obs/v1"

PathLike = Union[str, Path]

#: One encoder for every line written here (``json.dumps`` builds one per
#: call), and its text cached for a trace event's few-valued fields.
_encode = json.JSONEncoder(default=str).encode
_quoted = lru_cache(maxsize=4096)(_encode)


def header_record(**extra: Any) -> Dict[str, Any]:
    """The leading record of a ``repro.obs/v1`` stream."""
    return {"record": "header", "schema": SCHEMA, **extra}


def trace_event_record(event: TraceEvent, cell: Optional[str] = None) -> Dict[str, Any]:
    """One :class:`TraceEvent` as a schema record (``cell``-tagged if given)."""
    record = {
        "record": "trace",
        "time": event.time,
        "kind": event.kind,
        "where": event.where,
        "packet_uid": event.packet_uid,
        "flow_id": event.flow_id,
        "flow_seq": event.flow_seq,
        "packet_kind": event.packet_kind,
        "seq": event.seq,
        "ack": event.ack,
        "retransmit": event.retransmit,
        "path": event.path,
    }
    if cell is not None:
        record["cell"] = cell
    return record


def trace_line(event: TraceEvent, cell: Optional[str] = None) -> str:
    """One :class:`TraceEvent` as its finished JSONL line (no newline):
    byte for byte ``json.dumps`` of :func:`trace_event_record`, the
    reference the tests pin it to, without building the dict."""
    (time, kind, where, packet_uid, flow_id, flow_seq, packet_kind, seq, ack,
     retransmit, path) = event
    finite = time.__class__ is float and isfinite(time)
    return (
        f'{{"record": "trace", "time": {repr(time) if finite else _encode(time)}, '
        f'"kind": {_quoted(kind)}, "where": {_quoted(where)}, '
        f'"packet_uid": {packet_uid}, "flow_id": {flow_id}, '
        f'"flow_seq": {flow_seq}, "packet_kind": {_quoted(packet_kind)}, '
        f'"seq": {seq}, "ack": {ack}, '
        f'"retransmit": {"true" if retransmit else "false"}, '
        f'"path": {_quoted(path)}'
        + ("}" if cell is None else f', "cell": {_quoted(cell)}}}')
    )


def trace_event_from_record(record: Dict[str, Any]) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its schema record.

    Tolerates streams written before the ``flow_seq`` / ``retransmit`` /
    ``path`` fields existed (the schema is append-only) and external
    captures converted by :mod:`repro.traces.adapter`.  The few-valued
    strings are interned: a stream holds one ``"recv"``, not one per event.
    """
    path = record.get("path")
    return TraceEvent(
        float(record["time"]),
        intern(str(record["kind"])),
        intern(str(record.get("where", ""))),
        int(record.get("packet_uid", -1)),
        int(record.get("flow_id", 0)),
        int(record.get("flow_seq", 0)),
        intern(str(record.get("packet_kind", "data"))),
        int(record.get("seq", -1)),
        int(record.get("ack", -1)),
        bool(record.get("retransmit", False)),
        intern(path) if path.__class__ is str else path,
    )


def fault_record(record: FaultRecord) -> Dict[str, Any]:
    """One :class:`FaultRecord` as a schema record."""
    return {
        "record": "fault",
        "time": record.time,
        "kind": record.kind,
        "target": record.target,
        "detail": record.detail,
    }


def key_to_str(key: Any) -> str:
    """Render a sweep-cell key stably (strings verbatim, else JSON)."""
    if isinstance(key, str):
        return key
    try:
        return json.dumps(key, default=str)
    except TypeError:
        return repr(key)


def registry_records(
    registry: MetricsRegistry, cell: Optional[Any] = None
) -> List[Dict[str, Any]]:
    """A registry's metrics as records, optionally tagged with a cell key."""
    records = registry.to_records()
    if cell is not None:
        tag = key_to_str(cell)
        for record in records:
            record["cell"] = tag
    return records


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(
    records: Iterable[Union[Dict[str, Any], str]],
    path: PathLike,
    header: bool = True,
    **header_fields: Any,
) -> Path:
    """Write records to ``path`` as JSON Lines; returns the path.

    ``records`` is consumed once, as it is written, so a generator
    streams; an item that is already a ``str`` is a finished line (see
    :func:`trace_line`).  A header record is prepended unless
    ``header=False`` or the first record already is one.
    """
    path = Path(path)
    items = iter(records)
    lead = list(islice(items, 1))
    if header and not (
        lead and isinstance(lead[0], dict) and lead[0].get("record") == "header"
    ):
        lead.insert(0, header_record(**header_fields))
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(
            (item if item.__class__ is str else _encode(item)) + "\n"
            for item in chain(lead, items)
        )
    return path


def iter_jsonl(
    path: PathLike, on_invalid: str = "raise"
) -> Iterator[Dict[str, Any]]:
    """The generator under :func:`read_jsonl` (same ``on_invalid``
    contract; the skip warning comes once the file is exhausted)."""
    if on_invalid not in ("raise", "skip"):
        raise ValueError(
            f"on_invalid must be 'raise' or 'skip', got {on_invalid!r}"
        )
    skipped = 0
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if on_invalid == "raise":
                    raise
                skipped += 1
                continue
            yield record
    if skipped:
        import warnings

        warnings.warn(
            f"{path}: skipped {skipped} unparseable JSONL line(s) "
            f"(truncated or not JSON)",
            RuntimeWarning,
            stacklevel=3,
        )


def read_jsonl(
    path: PathLike, on_invalid: str = "raise"
) -> List[Dict[str, Any]]:
    """Read a JSONL record stream (blank lines ignored).

    ``on_invalid`` controls what happens on an unparseable line:
    ``"raise"`` (default) propagates the ``json.JSONDecodeError``;
    ``"skip"`` drops the line and emits a single :class:`RuntimeWarning`
    naming the file and the count.  Skip mode exists for files from
    outside this program (the ``repro obs`` inspector reads whatever it
    is given): a hand-edited file, a capture cut off mid-line, another
    tool's log.  Every file this program writes has one writer and
    whole lines only.
    """
    return list(iter_jsonl(path, on_invalid))


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def write_csv(records: Iterable[Dict[str, Any]], path: PathLike) -> Path:
    """Write records to ``path`` as CSV; returns the path.

    The column set is the union of all record keys (in first-seen
    order); nested values (labels, arrays, summaries) are JSON-encoded
    in their cells so the file round-trips losslessly.
    """
    path = Path(path)
    records = list(records)
    columns: List[str] = []
    seen = set()
    for record in records:
        for key in record:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for record in records:
            writer.writerow(
                [_csv_cell(record[key]) if key in record else "" for key in columns]
            )
    return path


def _csv_cell(value: Any) -> Any:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, default=str)
    return value


# ----------------------------------------------------------------------
# Summaries (the `repro obs summary` view)
# ----------------------------------------------------------------------
def summarize_records(records: Iterable[Dict[str, Any]]) -> str:
    """A human-readable digest of a record stream."""
    records = list(records)
    by_type: Dict[str, int] = {}
    for record in records:
        kind = record.get("record", "?")
        by_type[kind] = by_type.get(kind, 0) + 1
    out = io.StringIO()
    schema = next(
        (r.get("schema") for r in records if r.get("record") == "header"), None
    )
    out.write(f"schema: {schema or '(no header)'}\n")
    out.write(
        "records: "
        + ", ".join(f"{kind}={count}" for kind, count in sorted(by_type.items()))
        + "\n"
    )
    metrics = [r for r in records if r.get("record") == "metric"]
    if metrics:
        out.write("metrics:\n")
        for record in metrics:
            labels = record.get("labels") or {}
            label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            cell = record.get("cell")
            origin = f" cell={cell}" if cell is not None else ""
            out.write(
                f"  {record.get('name')}{{{label_text}}} "
                f"[{record.get('kind')}]{origin} {_metric_digest(record)}\n"
            )
    cells = [r for r in records if r.get("record") == "cell"]
    if cells:
        out.write("cells:\n")
        for record in cells:
            status = "cached" if record.get("cached") else (
                record.get("error") or "ok"
            )
            out.write(
                f"  {record.get('key')}: {status}, "
                f"attempts={record.get('attempts')}, "
                f"wall={record.get('wall_time', 0.0):.3f}s\n"
            )
    sweeps = [r for r in records if r.get("record") == "sweep"]
    for record in sweeps:
        out.write(
            f"sweep: total={record.get('total')} cached={record.get('cached')} "
            f"executed={record.get('executed')} failed={record.get('failed')} "
            f"timed_out={record.get('timed_out')} retried={record.get('retried')}\n"
        )
    return out.getvalue().rstrip("\n")


def _metric_digest(record: Dict[str, Any]) -> str:
    kind = record.get("kind")
    if kind in ("counter", "gauge"):
        return f"value={record.get('value')}"
    if kind == "histogram":
        return f"count={record.get('count')} sum={record.get('sum')}"
    if kind == "timeseries":
        times = record.get("times") or []
        values = record.get("values") or []
        last = values[-1] if values else None
        return f"n={len(times)} last={last}"
    return ""
