"""What the trace loop holds per packet event: counted, not timed.

``tracemalloc`` peaks divided by the event count, so the numbers do not
depend on the host's speed.  The ceilings sit between this
implementation and the per-record-dict one it replaced (analyzer 1977 B
per event, now ~410; tracer + export ~900, now ~330), far enough from
both that allocator noise cannot flip them.  docs/OBSERVABILITY.md,
"What tracing costs", has the full table.
"""

import tracemalloc

from repro.net.packet import Packet
from repro.obs.export import trace_line, write_jsonl
from repro.obs.trace import PacketTracer, TraceEvent
from repro.traces import TraceStream, analyze_stream

CELL = '["tcp-pr", 0.0]'
ROUTES = [("src", f"p{i}m0", f"p{i}m1", "dst") for i in range(4)]


def _synthetic_trace(path, events):
    """A single-flow trace shaped like a Figure 6 cell: segments go out
    over four paths, arrive in reversed blocks of four (three in four
    reordered, as at eps=0) and are ACKed."""
    lines, flow_seq = [], 0
    for seq in range(events // 3):
        sent = seq * 1e-3
        route = ">".join(ROUTES[seq % 4])
        late = seq - seq % 4 + 3 - seq % 4
        for time, kind, where, packet_kind, number, ack in (
            (sent, "send", "src", "data", seq, -1),
            (sent + 0.02, "recv", "dst", "data", late, -1),
            (sent + 0.04, "recv", "src", "ack", late, seq),
        ):
            lines.append(trace_line(
                TraceEvent(time, kind, where, 2 * seq, 1, flow_seq,
                           packet_kind, number, ack, False, route),
                CELL,
            ))
            flow_seq += 1
    write_jsonl(lines, path, command="synthetic")
    return len(lines)


def _peak_bytes(work):
    tracemalloc.start()
    try:
        kept = work()  # held until the peak is read, like a live caller
        return tracemalloc.get_traced_memory()[1], kept
    finally:
        tracemalloc.stop()


def _analyze(path):
    stream = TraceStream.from_jsonl(path)
    return stream, analyze_stream(stream)


def test_parsing_and_analyzing_a_trace_holds_under_900_bytes_per_event(tmp_path):
    per_event = {}
    for events in (20_000, 40_000):
        path = tmp_path / f"trace-{events}.jsonl"
        count = _synthetic_trace(path, events)
        peak, (stream, report) = _peak_bytes(lambda: _analyze(path))
        assert report.total_events == len(stream.events) == count
        assert report.flow(1, cell=CELL).reordered > count // 5
        per_event[events] = peak / count
    assert per_event[20_000] < 900, per_event
    # No per-stream constant hiding in the ratio, no superlinear term.
    assert abs(per_event[40_000] / per_event[20_000] - 1.0) < 0.10, per_event


def test_recording_and_exporting_a_trace_holds_under_600_bytes_per_event(tmp_path):
    events = 20_000

    def record_and_export():
        tracer = PacketTracer()
        for index in range(events):
            packet = Packet("data", "src", "dst", flow_id=1, seq=index)
            packet.route = ROUTES[index % 4]
            tracer._record(index * 1e-3, "recv", "dst", packet)
        write_jsonl(
            (trace_line(event, CELL) for event in tracer.events),
            tmp_path / "out.jsonl",
        )
        return tracer

    peak, tracer = _peak_bytes(record_and_export)
    assert len(tracer.events) == events
    assert peak / events < 600, peak / events
    assert len(TraceStream.from_jsonl(tmp_path / "out.jsonl").events) == events


def test_a_file_backed_stream_still_round_trips_and_counts_every_record(tmp_path):
    path = tmp_path / "p.jsonl"
    count = _synthetic_trace(path, 300)
    stream = TraceStream.from_jsonl(path)
    assert len(stream) == len(stream.records) == len(stream.to_records()) == count + 1
    assert stream.records[0]["record"] == "header"
    assert stream.write(tmp_path / "q.jsonl").read_bytes() == path.read_bytes()
    # Rewriting the file it reads from must not truncate it mid-read.
    original = path.read_bytes()
    stream.write(path)
    assert path.read_bytes() == original
