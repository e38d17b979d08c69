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

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.export import (
        SCHEMA,
        read_jsonl,
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

#: Public name -> the module that defines it, imported on first access
#: (PEP 562): ``import repro.obs`` loads no submodule.
_EXPORTS = {
    "Counter": "repro.obs.registry",
    "CwndMonitor": "repro.obs.monitors",
    "DEFAULT_BUCKETS": "repro.obs.registry",
    "FaultRecord": "repro.obs.trace",
    "FaultTimelineMonitor": "repro.obs.monitors",
    "FlowThroughputMonitor": "repro.obs.monitors",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "Instrumentation": "repro.obs.instrument",
    "MetricsRegistry": "repro.obs.registry",
    "PacketTracer": "repro.obs.trace",
    "QueueMonitor": "repro.obs.monitors",
    "SCHEMA": "repro.obs.export",
    "Timeseries": "repro.obs.registry",
    "TraceEvent": "repro.obs.trace",
    "ambient": "repro.obs.instrument",
    "get_ambient": "repro.obs.instrument",
    "maybe_observe": "repro.obs.instrument",
    "observe": "repro.obs.instrument",
    "read_jsonl": "repro.obs.export",
    "set_ambient": "repro.obs.instrument",
    "summarize_records": "repro.obs.export",
    "write_csv": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
}

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
    "read_jsonl",
    "set_ambient",
    "summarize_records",
    "write_csv",
    "write_jsonl",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
