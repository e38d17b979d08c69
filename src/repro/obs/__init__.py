"""Unified observability: metrics, monitors, traces, structured export.

The one attachment surface is :class:`Instrumentation` (or the
:func:`observe` shorthand)::

    from repro.obs import observe

    inst = observe(net)              # probe every link/sender/receiver
    net.run(until=30.0)
    inst.registry.get("flow.cwnd", flow=1, variant="tcp-pr").values

Submodules:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry` and the metric
  types (counter, gauge, histogram, timeseries);
* :mod:`repro.obs.instrument` — push-based component probes, the
  :class:`Instrumentation` owner object, and the ambient context used
  by the sweep executor;
* :mod:`repro.obs.monitors` — the poll-based samplers (throughput,
  cwnd, queue, fault timeline);
* :mod:`repro.obs.trace` — :class:`PacketTracer` and the trace/fault
  record types;
* :mod:`repro.obs.export` — the ``repro.obs/v1`` JSONL/CSV schema.
"""

from repro.obs.export import (
    SCHEMA,
    JsonlAppender,
    read_jsonl,
    recover_jsonl_tail,
    summarize_records,
    write_csv,
    write_jsonl,
)
from repro.obs.instrument import (
    Instrumentation,
    ambient,
    get_ambient,
    maybe_observe,
    observe,
    set_ambient,
)
from repro.obs.monitors import (
    CwndMonitor,
    FaultTimelineMonitor,
    FlowThroughputMonitor,
    QueueMonitor,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timeseries,
)
from repro.obs.trace import FaultRecord, PacketTracer, TraceEvent

__all__ = [
    "DEFAULT_BUCKETS",
    "SCHEMA",
    "Counter",
    "CwndMonitor",
    "FaultRecord",
    "FaultTimelineMonitor",
    "FlowThroughputMonitor",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "PacketTracer",
    "QueueMonitor",
    "Timeseries",
    "TraceEvent",
    "ambient",
    "get_ambient",
    "maybe_observe",
    "observe",
    "JsonlAppender",
    "read_jsonl",
    "recover_jsonl_tail",
    "set_ambient",
    "summarize_records",
    "write_csv",
    "write_jsonl",
]
