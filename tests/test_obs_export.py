"""Tests for structured export (repro.obs.export): JSONL/CSV round-trips."""

import csv
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry, read_jsonl, write_csv, write_jsonl
from repro.obs.export import (
    SCHEMA,
    header_record,
    iter_jsonl,
    key_to_str,
    registry_records,
    summarize_records,
    trace_event_record,
    trace_line,
)
from repro.obs.trace import TraceEvent


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter("link.drops", link="a->b", kind="queue").inc(3)
    series = registry.timeseries("flow.cwnd", flow=1, variant="tcp-pr")
    series.append(0.5, 2.0)
    series.append(1.0, 3.0)
    hist = registry.histogram("flow.reorder_displacement.hist", flow=1)
    hist.observe(2)
    hist.observe(40)
    return registry


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_round_trip_preserves_records(tmp_path):
    records = _sample_registry().to_records()
    path = write_jsonl(records, tmp_path / "m.jsonl", command="test")
    loaded = read_jsonl(path)
    header, body = loaded[0], loaded[1:]
    assert header["record"] == "header"
    assert header["schema"] == SCHEMA == "repro.obs/v1"
    assert header["command"] == "test"
    assert body == json.loads(json.dumps(records))  # value-identical


def test_read_jsonl_tolerates_corrupt_midfile_line(tmp_path):
    """A file from outside the program can hold a corrupt mid-file
    line; skip mode reads past it (with a warning) where the default
    raises."""
    import json as _json

    import pytest

    path = tmp_path / "torn.jsonl"
    good_a = _json.dumps({"record": "flow", "i": 1})
    good_b = _json.dumps({"record": "flow", "i": 2})
    path.write_text(f'{good_a}\n{{"record": "fl{good_b}\n{good_a}\n')
    with pytest.raises(_json.JSONDecodeError):
        read_jsonl(path)
    with pytest.warns(RuntimeWarning, match="skipped 1 unparseable"):
        records = read_jsonl(path, on_invalid="skip")
    assert [r["i"] for r in records] == [1, 1]
    with pytest.raises(ValueError):
        read_jsonl(path, on_invalid="ignore")


def test_header_not_duplicated(tmp_path):
    records = [header_record(), {"record": "metric", "name": "x"}]
    path = write_jsonl(records, tmp_path / "m.jsonl")
    loaded = read_jsonl(path)
    assert [r["record"] for r in loaded] == ["header", "metric"]


def test_registry_records_tags_cell():
    records = registry_records(_sample_registry(), cell=("tcp-pr", 0.0))
    assert all(r["cell"] == '["tcp-pr", 0.0]' for r in records)


def test_key_to_str_is_stable():
    assert key_to_str("plain") == "plain"
    assert key_to_str(("a", 1.0)) == '["a", 1.0]'
    assert key_to_str(42) == "42"


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def test_csv_round_trips_nested_values(tmp_path):
    records = _sample_registry().to_records()
    path = write_csv(records, tmp_path / "m.csv")
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(records)
    first = rows[0]
    assert first["name"] == "link.drops"
    assert json.loads(first["labels"]) == {"kind": "queue", "link": "a->b"}
    series_row = next(row for row in rows if row["name"] == "flow.cwnd")
    assert json.loads(series_row["times"]) == [0.5, 1.0]


def test_csv_union_of_columns(tmp_path):
    records = [{"record": "a", "x": 1}, {"record": "b", "y": 2}]
    path = write_csv(records, tmp_path / "m.csv")
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["record", "x", "y"]
    assert rows[1] == ["a", "1", ""]
    assert rows[2] == ["b", "", "2"]


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def test_summarize_records_digest():
    records = [header_record(), *_sample_registry().to_records()]
    records.append(
        {
            "record": "cell",
            "key": "k",
            "cached": False,
            "attempts": 1,
            "wall_time": 0.25,
        }
    )
    records.append({"record": "sweep", "total": 1, "cached": 0, "executed": 1,
                    "failed": 0, "timed_out": 0, "retried": 0})
    text = summarize_records(records)
    assert "schema: repro.obs/v1" in text
    assert "metric=3" in text
    assert "flow.cwnd{flow=1,variant=tcp-pr}" in text
    assert "k: ok, attempts=1" in text
    assert "sweep: total=1" in text


# ----------------------------------------------------------------------
# The byte contract of the streaming export: trace_line and write_jsonl
# are pinned to trace_event_record + json.dumps, the form they replaced
# ----------------------------------------------------------------------
_NASTY_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)),  # any non-surrogate
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "/", "é", "→", "𝄞"]),
    ),
    max_size=12,
)
_ANY_INT = st.one_of(
    st.integers(min_value=-5, max_value=300),
    st.integers(),  # unbounded: negative and beyond 2**53
    st.sampled_from([2**53 + 1, -(2**63), 2**64]),
)
_ANY_TIME = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),  # incl. subnormals
    st.sampled_from([-0.0, 0.0, 1e22, 1e-7, 5e-324, 0.1 + 0.2, 0, 3,
                     float("inf"), float("-inf"), float("nan")]),
)
_EVENTS = st.builds(
    TraceEvent,
    time=_ANY_TIME,
    kind=st.one_of(st.sampled_from(["send", "recv", "drop"]), _NASTY_TEXT),
    where=_NASTY_TEXT,
    packet_uid=_ANY_INT,
    flow_id=_ANY_INT,
    flow_seq=_ANY_INT,
    packet_kind=st.sampled_from(["data", "ack"]),
    seq=_ANY_INT,
    ack=_ANY_INT,
    retransmit=st.booleans(),
    path=st.one_of(st.none(), _NASTY_TEXT),
)


@given(event=_EVENTS, cell=_NASTY_TEXT)
@settings(max_examples=300, deadline=None)
def test_trace_line_is_json_dumps_of_the_event_record(event, cell):
    assert trace_line(event) == json.dumps(trace_event_record(event))
    assert trace_line(event, cell) == json.dumps(
        {**trace_event_record(event), "cell": cell}
    )


def _parent_write_jsonl(records, path, header=True, **header_fields):
    """write_jsonl as the parent of the streaming rewrite had it."""
    records = list(records)
    if header and not (records and records[0].get("record") == "header"):
        records.insert(0, header_record(**header_fields))
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, default=str))
            handle.write("\n")
    return path


def _mixed_records():
    """Metric dicts, cell-tagged packet events, one fault, one value only
    ``default=str`` can encode."""
    events = [
        TraceEvent(0.1 * i, "recv", "dst", i, 1, i, "data", i, -1,
                   bool(i % 2), "a>b" if i % 3 else None)
        for i in range(7)
    ]
    records = _sample_registry().to_records()
    records += [{**trace_event_record(e), "cell": '["c", 0.0]'} for e in events]
    records.append({"record": "fault", "time": 1.0, "kind": "link-down",
                    "target": "a->b", "detail": "down", "where": Path("x")})
    lines = [
        trace_line(TraceEvent(**{k: v for k, v in r.items()
                                 if k not in ("record", "cell")}), r["cell"])
        if r["record"] == "trace" else r
        for r in records
    ]
    return records, lines


@pytest.mark.parametrize("lead_header", [False, True])
def test_write_jsonl_streams_a_generator_of_dicts_and_finished_lines(
    tmp_path, lead_header
):
    records, lines = _mixed_records()
    assert any(isinstance(line, str) for line in lines)
    lead = [header_record(command="mine")] if lead_header else []
    expected = _parent_write_jsonl(lead + records, tmp_path / "a", command="t")
    consumed = []

    def stream():
        for item in lead + lines:
            consumed.append(item)
            yield item

    written = write_jsonl(stream(), tmp_path / "b", command="t")
    assert len(consumed) == len(lead) + len(lines)
    assert written.read_bytes() == expected.read_bytes()
    assert read_jsonl(written)[0] == header_record(
        command="mine" if lead_header else "t"
    )


def test_write_jsonl_of_nothing_is_the_header_alone(tmp_path):
    written = write_jsonl(iter(()), tmp_path / "empty.jsonl", command="t")
    assert read_jsonl(written) == [header_record(command="t")]
    bare = write_jsonl(iter(()), tmp_path / "bare.jsonl", header=False)
    assert bare.read_bytes() == b""


def test_iter_jsonl_is_read_jsonl_one_record_at_a_time(tmp_path):
    records, _ = _mixed_records()
    path = write_jsonl(records, tmp_path / "m.jsonl")
    stream = iter_jsonl(path)
    assert next(stream)["record"] == "header"
    assert [next(stream)] + list(stream) == read_jsonl(path)[1:]
    path.write_text(path.read_text() + '{"torn\n')
    with pytest.warns(RuntimeWarning, match="skipped 1 unparseable"):
        assert len(list(iter_jsonl(path, on_invalid="skip"))) == len(records) + 1
