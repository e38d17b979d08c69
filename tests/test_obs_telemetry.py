"""Tests for sweep telemetry (repro.exec.telemetry): per-cell execution
stories plus worker-side metric collection across the process boundary."""

import json

import pytest

from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner, run_sweep
from repro.exec.spec import SweepCell
from repro.exec.telemetry import (
    CellTelemetry,
    SweepTelemetry,
    summaries_from_records,
)
from repro.exec.testing import BOOM_CELL, FLOW_CELL, METRIC_CELL
from repro.obs.export import trace_event_record, trace_line
from repro.obs.trace import TraceEvent

from test_exec_runner import _tiny_fig6_spec

pytestmark = pytest.mark.faults


def _metric(key, value=1.0, seed=0):
    return SweepCell(key=key, func=METRIC_CELL, params={"value": value}, seed=seed)


def _boom(key):
    return SweepCell(key=key, func=BOOM_CELL, params={})


# ----------------------------------------------------------------------
# Collection plumbing: worker metrics cross the process boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_collected_metrics_are_tagged_with_their_cell(jobs):
    runner = ParallelRunner(jobs=jobs, collect_metrics=True)
    runner.run_cells([_metric("a", value=2.0), _metric("b", value=5.0)])
    telemetry = runner.last_stats.telemetry
    metrics = [r for r in telemetry.collected if r["record"] == "metric"]
    assert {r["cell"] for r in metrics} == {"a", "b"}
    by_cell = {r["cell"]: r for r in metrics}
    assert by_cell["a"]["name"] == "test.cell_value"
    assert by_cell["a"]["value"] == 2.0
    assert by_cell["b"]["value"] == 5.0


def test_collected_streams_do_not_depend_on_jobs_or_completion_order():
    """The first cell simulates ten times longer, so at jobs=2 it
    completes last; every collected stream still lists it first, exactly
    as jobs=1 does.  Packet uids restart with each collecting cell, so a
    cell's trace is the same in-process after another cell as alone in a
    fresh worker."""

    def streams(jobs):
        runner = ParallelRunner(jobs=jobs, collect_metrics=True, collect_trace=True)
        runner.run_cells([
            SweepCell(key=key, func=FLOW_CELL,
                      params={"duration": duration}, seed=7)
            for key, duration in (("long", 2.0), ("short", 0.2))
        ])
        telemetry = runner.last_stats.telemetry
        volatile = ("wall_time", "elapsed", "jobs")
        metrics = [
            {k: v for k, v in record.items() if k not in volatile}
            for record in telemetry.metric_records()
        ]
        return metrics, list(telemetry.trace_lines()), telemetry

    (metrics, lines, telemetry), parallel = streams(1), streams(2)
    assert (metrics, lines) == parallel[:2]
    cells = [r["cell"] for r in metrics if r["record"] == "metric"]
    assert cells == sorted(cells) and set(cells) == {"long", "short"}
    assert [tag for tag, _ in telemetry.traces] == ["long", "short"]
    assert all(events[0].packet_uid == 0 for _, events in telemetry.traces)
    assert lines == [
        json.dumps(record) for record in telemetry.trace_records()
    ] and len(lines) > 100
    assert not any(r["record"] == "trace" for r in telemetry.collected)


def test_no_collection_means_no_records_and_empty_cell_metrics():
    runner = ParallelRunner(collect_metrics=False)
    runner.run_cells([_metric("a")])
    telemetry = runner.last_stats.telemetry
    assert telemetry is not None  # telemetry itself is always populated
    assert telemetry.collected == []
    assert telemetry.cell("a").metrics == {}


def test_cell_telemetry_carries_metric_summaries():
    runner = ParallelRunner(collect_metrics=True)
    runner.run_cells([_metric("a", value=3.0)])
    cell = runner.last_stats.telemetry.cell("a")
    assert cell.cached is False
    assert cell.attempts == 1
    assert cell.error is None
    assert cell.metrics["test.cell_value{seed=0}"] == {
        "kind": "counter",
        "value": 3.0,
    }


def test_collection_does_not_change_sweep_results():
    spec = _tiny_fig6_spec(seed=5)
    plain = run_sweep(spec, jobs=2)
    collected = run_sweep(spec, jobs=2, collect_metrics=True, collect_trace=True)
    assert plain == collected


# ----------------------------------------------------------------------
# Cache and failure interplay
# ----------------------------------------------------------------------
def test_cached_cells_report_cached_with_no_fresh_metrics(tmp_path):
    cache = ResultCache(tmp_path)
    ParallelRunner(cache=cache, collect_metrics=True).run_cells([_metric("a")])
    runner = ParallelRunner(cache=cache, collect_metrics=True)
    runner.run_cells([_metric("a")])
    telemetry = runner.last_stats.telemetry
    cell = telemetry.cell("a")
    assert cell.cached is True
    assert cell.attempts == 0
    assert cell.metrics == {}
    assert telemetry.collected == []  # nothing executed, nothing gathered
    assert telemetry.cached == 1 and telemetry.executed == 0


def test_keep_going_telemetry_reports_failures_alongside_metrics():
    runner = ParallelRunner(keep_going=True, collect_metrics=True)
    runner.run_cells([_metric("a"), _boom("b"), _metric("c")])
    telemetry = runner.last_stats.telemetry
    assert telemetry.total == 3
    assert telemetry.failed == 1
    assert telemetry.executed == 3  # executed counts the failed attempt too
    failed = telemetry.cell("b")
    assert failed.error.startswith("ValueError")
    assert failed.timed_out is False
    assert failed.metrics == {}
    # The healthy cells still delivered their metrics.
    cells_with_metrics = {r["cell"] for r in telemetry.collected}
    assert cells_with_metrics == {"a", "c"}


# ----------------------------------------------------------------------
# Record streams
# ----------------------------------------------------------------------
def test_metric_records_composition():
    runner = ParallelRunner(collect_metrics=True)
    runner.run_cells([_metric("a")])
    records = runner.last_stats.telemetry.metric_records()
    kinds = [r["record"] for r in records]
    assert kinds == ["metric", "cell", "sweep"]
    sweep = records[-1]
    assert sweep["total"] == 1 and sweep["executed"] == 1
    assert records[1]["key"] == "a"


def test_trace_records_filter():
    event = TraceEvent(0.5, "recv", "dst", 3, 1, 0, "data", 2, -1)
    telemetry = SweepTelemetry(
        collected=[
            {"record": "metric", "name": "x", "cell": "c"},
            {"record": "fault", "kind": "link-down", "cell": "c"},
        ],
        traces=[("c", [event])],
    )
    records = list(telemetry.trace_records())
    assert [r["record"] for r in records] == ["trace", "fault"]
    assert records[0] == {**trace_event_record(event), "cell": "c"}
    # The export stream is the same records, packet events pre-rendered.
    assert list(telemetry.trace_lines()) == [trace_line(event, "c"), records[1]]


def test_cell_lookup_and_record_shape():
    cell = CellTelemetry(
        key=("tcp-pr", 0.0),
        cached=False,
        attempts=2,
        timed_out=False,
        error=None,
        wall_time=1.5,
    )
    telemetry = SweepTelemetry(cells=[cell])
    assert telemetry.cell(("tcp-pr", 0.0)) is cell
    assert telemetry.cell("missing") is None
    record = cell.to_record()
    assert record["record"] == "cell"
    assert record["key"] == '["tcp-pr", 0.0]'
    assert record["attempts"] == 2


# ----------------------------------------------------------------------
# summaries_from_records
# ----------------------------------------------------------------------
def test_summaries_from_records_each_kind():
    records = [
        {"record": "header"},  # ignored
        {"record": "metric", "kind": "counter", "name": "c",
         "labels": {"link": "l"}, "value": 3.0},
        {"record": "metric", "kind": "gauge", "name": "g", "labels": {},
         "value": 7.0},
        {"record": "metric", "kind": "histogram", "name": "h", "labels": {},
         "count": 2, "sum": 6.0, "min": 1.0, "max": 5.0},
        {"record": "metric", "kind": "timeseries", "name": "t",
         "labels": {"flow": 1}, "times": [0.0, 1.0], "values": [2.0, 4.0]},
    ]
    summaries = summaries_from_records(records)
    assert summaries["c{link=l}"] == {"kind": "counter", "value": 3.0}
    assert summaries["g{}"] == {"kind": "gauge", "value": 7.0}
    assert summaries["h{}"] == {
        "kind": "histogram", "count": 2, "mean": 3.0, "min": 1.0, "max": 5.0,
    }
    assert summaries["t{flow=1}"] == {
        "kind": "timeseries", "n": 2, "last": 4.0, "min": 2.0, "max": 4.0,
    }
