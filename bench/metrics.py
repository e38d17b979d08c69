"""The metric catalog: names, units and directions.

``BENCHMARK.json`` carries the same lists (``bench/tests`` checks both
directions), plus the regression bound of each end-to-end metric.  All
times are host time.  A per-layer metric a workload does not exercise
reads 0: the layer did no work there, which is itself the prediction to
check (``core.acks_in`` on ``cbr_forward``).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: ``(name, unit)``; every one is better lower.  Failures are not a
#: metric here: each result carries ``attempted`` and ``failed`` counts.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cli_warm_s", "s"),
    ("cli_startup_s", "s"),
    ("setup_s", "s"),
)

#: ``(name, unit, better)``, grouped by layer (the package names).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.heap_high_water", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.dispatch_ns", "ns", "lower"),
    ("sim.kernel_pure_ns", "ns", "lower"),
    ("sim.kernel_compiled_ns", "ns", "lower"),
    ("net.calls", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("net.ns_per_hop", "ns", "lower"),
    ("net.pkts_enqueued", "count", "lower"),
    ("net.queue_drops", "count", "lower"),
    ("net.dead_letters", "count", "lower"),
    ("routing.choose_route_calls", "count", "lower"),
    ("routing.self_s", "s", "lower"),
    ("core.acks_in", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.ns_per_ack", "ns", "lower"),
    ("core.timer_events", "count", "lower"),
    ("core.drops_declared", "count", "lower"),
    ("core.retransmits", "count", "lower"),
    ("core.window_cuts", "count", "lower"),
    ("core.spurious_ratio", "ratio", "lower"),
    ("tcp.sender_acks_in", "count", "lower"),
    ("tcp.sender_self_s", "s", "lower"),
    ("tcp.rto_events", "count", "lower"),
    ("tcp.receiver_segments", "count", "lower"),
    ("tcp.receiver_ooo", "count", "lower"),
    ("tcp.receiver_self_s", "s", "lower"),
    ("tcp.receiver_ns_per_seg", "ns", "lower"),
    ("tcp.make_sender_calls", "count", "lower"),
    ("tcp.make_sender_s", "s", "lower"),
    ("app.self_s", "s", "lower"),
    ("topologies.build_s", "s", "lower"),
    ("topologies.nodes", "count", "lower"),
    ("topologies.links", "count", "lower"),
    ("scenarios.flows", "count", "higher"),
    ("scenarios.completed_ratio", "ratio", "higher"),
    ("scenarios.self_s", "s", "lower"),
    ("scenarios.generate_flows_s", "s", "lower"),
    ("scenarios.shard_s_max", "s", "lower"),
    ("scenarios.shard_s_sum", "s", "lower"),
    ("scenarios.merge_s", "s", "lower"),
    ("scenarios.stream_bytes", "bytes", "lower"),
    ("scenarios.worker_rss_kb", "KiB", "lower"),
    ("exec.cells", "count", "lower"),
    ("exec.cell_s_sum", "s", "lower"),
    ("exec.overhead_s", "s", "lower"),
    ("exec.parallel_eff", "ratio", "higher"),
    ("exec.cache_put_s", "s", "lower"),
    ("exec.cache_get_s", "s", "lower"),
    ("exec.cache_bytes", "bytes", "lower"),
    ("experiments.serialize_s", "s", "lower"),
    ("experiments.report_s", "s", "lower"),
    ("experiments.fig6_pr_eps0_mbps", "Mbit/s", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("obs.records", "count", "lower"),
    ("obs.bytes", "bytes", "lower"),
    ("obs.self_s", "s", "lower"),
    ("obs.attach_overhead_s", "s", "lower"),
    ("obs.export_s", "s", "lower"),
    ("obs.profile_overhead_ratio", "ratio", "lower"),
    ("traces.events", "count", "lower"),
    ("traces.parse_s", "s", "lower"),
    ("traces.analyze_s", "s", "lower"),
    ("traces.ns_per_event", "ns", "lower"),
    ("traces.scaling_exp", "ratio", "lower"),
    ("checkpoint.snapshot_s", "s", "lower"),
    ("checkpoint.restore_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("cext.build_s", "s", "lower"),
    ("cext.speedup", "ratio", "higher"),
    ("trace.run_wall_s", "s", "lower"),
    ("trace.other_self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def summarize(values: List[float], unit: str) -> Dict[str, object]:
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "unit": unit,
        "samples": values,
    }
