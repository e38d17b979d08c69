"""The eight workloads: sizes, inputs, outputs, correctness checks.

Every workload is one closed batch job (no arrival process on host
time).  Five run in-process through the public building blocks
(``TopologySpec.build()``, ``install_epsilon_routing``, ``BulkTransfer``,
``OnOffSource``/``DatagramSink``, ``Network.run``); three are what a user
types (``python -m repro ...``), measured argv to exit.  Why each exists
is in ``BENCHMARK.json``; why each size was chosen is in
``bench/README.md``.

``repro`` is imported inside the functions that need it: the harness
process itself never imports the package under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench import clock
from bench.digest import file_sha256

#: ``--smoke`` divides every size by this (1 round, all checks that do
#: not depend on reaching steady state).
SMOKE_DIVISOR = 20.0

MBPS = 1e6
MSS_BITS = 8000.0  # 1000-byte segments, the package default


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Permanent name (a key of ``BENCHMARK.json``).
        kind: ``"inproc"`` (timed region is ``Network.run``) or ``"cli"``
            (timed region is spawn to exit of ``python -m repro ...``).
        size: Simulated seconds (``until`` / ``--duration``).
        engine: Engine build the rounds are pinned to.
        jobs: Worker processes the CLI command fans out to.
    """

    name: str
    kind: str
    size: float
    engine: str = "pure"
    jobs: int = 1

    def sized(self, smoke: bool) -> float:
        return self.size / SMOKE_DIVISOR if smoke else self.size


#: In ``BENCHMARK.json`` order.  Sizes put one round near 2.2 s on the
#: reference host so a 10 s run holds four or more rounds.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pr_bulk", "inproc", 70.0),
        Workload("mesh_reorder", "inproc", 15.0),
        Workload("mesh_reorder_c", "inproc", 15.0, engine="compiled"),
        Workload("fair_mix", "inproc", 45.0),
        Workload("cbr_forward", "inproc", 33.0),
        Workload("fig6_cli", "cli", 8.0, jobs=2),
        Workload("scale_fattree", "cli", 6.0, jobs=2),
        Workload("traced_cell", "cli", 6.0),
    )
}

#: Seed of the shared cache-warm ``fig6`` grid behind ``cli_warm_s``.
WARM_SEED = 0


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """A built, not yet run, in-process workload."""

    network: Any
    flows: List[Any]
    source: Optional[Any]
    sink: Optional[Any]
    until: float
    build_s: float


def _mesh(seed: int, sim: Any) -> Any:
    from repro.topologies.multipath_mesh import (
        MultipathMeshSpec,
        install_epsilon_routing,
    )

    network = MultipathMeshSpec(link_delay=0.01, seed=seed).build(sim).network
    install_epsilon_routing(network, epsilon=0, reorder_acks=True)
    return network


def build_scenario(
    name: str, seed: int, until: float, profile: bool = False
) -> Scenario:
    """Construct the named in-process workload on a fresh simulator."""
    from repro.app.bulk import BulkTransfer
    from repro.app.onoff import DatagramSink, OnOffSource
    from repro.sim import Simulator
    from repro.topologies.dumbbell import DumbbellSpec

    started = clock.now()
    sim = Simulator(seed=seed, profile=profile)
    flows: List[Any] = []
    source = sink = None
    if name == "pr_bulk":
        network = DumbbellSpec(
            num_pairs=1, bottleneck_bandwidth=10 * MBPS, seed=seed
        ).build(sim).network
        flows.append(BulkTransfer(network, "tcp-pr", "s0", "d0", flow_id=1))
    elif name in ("mesh_reorder", "mesh_reorder_c"):
        network = _mesh(seed, sim)
        flows.append(BulkTransfer(network, "tcp-pr", "src", "dst", flow_id=1))
    elif name == "fair_mix":
        network = DumbbellSpec(
            num_pairs=1,
            access_bandwidth=100 * MBPS,
            access_delay=1e-3,
            seed=seed,
        ).build(sim).network
        starts = sim.rng.stream("bench-starts")
        for index in range(16):
            flows.append(
                BulkTransfer(
                    network,
                    "tcp-pr" if index < 8 else "sack",
                    "s0",
                    "d0",
                    flow_id=index + 1,
                    start_at=starts.uniform(0.0, 2.0),
                )
            )
    elif name == "cbr_forward":
        network = _mesh(seed, sim)
        source = OnOffSource(
            sim,
            network.node("src"),
            1,
            "dst",
            rate_bps=40e6,
            packet_bytes=1000,
            mean_off=0,
        )
        sink = DatagramSink(sim, network.node("dst"), 1)
        source.start(0.0)
    else:
        raise ValueError(f"{name!r} is not an in-process workload")
    return Scenario(
        network=network,
        flows=flows,
        source=source,
        sink=sink,
        until=until,
        build_s=clock.now() - started,
    )


def _stats_dict(stats: Any) -> Dict[str, Any]:
    return {key: value for key, value in sorted(vars(stats).items())}


def scenario_outputs(scenario: Scenario) -> Dict[str, Any]:
    """The simulated outputs a digest pins."""
    network = scenario.network
    return {
        "events": network.sim.dispatched_events,
        "drops": network.total_drops(),
        "dead_letters": network.dead_letters(),
        "flows": [
            {
                "flow_id": flow.flow_id,
                "variant": flow.variant,
                "delivered": flow.delivered_segments,
                "stats": _stats_dict(flow.sender.stats),
            }
            for flow in scenario.flows
        ],
        "sink_packets": (
            scenario.sink.packets_received if scenario.sink is not None else 0
        ),
    }


def flow_counts(flows: Sequence[Any]) -> Dict[str, float]:
    """Per-layer counters read from sender/receiver public statistics."""
    pr = [f.sender.stats for f in flows if f.variant == "tcp-pr"]
    tcp = [f.sender.stats for f in flows if f.variant != "tcp-pr"]
    drops = sum(s.drops_detected for s in pr)
    return {
        "core.drops_declared": drops,
        "core.retransmits": sum(s.retransmits for s in pr),
        "core.window_cuts": sum(s.window_cuts for s in pr),
        "core.spurious_ratio": (
            sum(s.spurious_drops for s in pr) / drops if drops else 0.0
        ),
        "tcp.rto_events": sum(s.timeouts for s in tcp),
        "tcp.receiver_ooo": sum(f.receiver.reordered_arrivals for f in flows),
    }


def network_counts(networks: Sequence[Any]) -> Dict[str, float]:
    """Per-layer counters read from the public state of built networks.

    Packet counters add up over the networks (one per cell or shard);
    the shape is that of the first (shards all build the same graph).
    """
    links = [link for network in networks for link in network.links.values()]
    first = networks[0] if networks else None
    return {
        "net.pkts_enqueued": sum(link.arrived_packets for link in links),
        "net.queue_drops": sum(link.total_drops for link in links),
        "net.dead_letters": sum(n.dead_letters() for n in networks),
        "topologies.nodes": len(first.nodes) if first else 0,
        "topologies.links": len(first.links) if first else 0,
    }


def scenario_checks(
    name: str, scenario: Scenario, smoke: bool
) -> Dict[str, bool]:
    """Correctness checks of one in-process round.

    The goodput bounds need steady state, so ``--smoke`` skips them.
    """
    network = scenario.network
    checks = {"no_dead_letters": network.dead_letters() == 0}
    if smoke:
        return checks
    until = scenario.until
    goodput = [
        flow.delivered_segments * MSS_BITS / until / MBPS
        for flow in scenario.flows
    ]
    if name == "pr_bulk":
        checks["goodput_ge_9mbps"] = goodput[0] >= 9.0
    elif name in ("mesh_reorder", "mesh_reorder_c"):
        # Paper: ~33 Mbps in steady state; the first ~3 simulated
        # seconds of slow start pull a 15 s average to ~29.5.
        checks["goodput_ge_25mbps"] = goodput[0] >= 25.0
    elif name == "fair_mix":
        mean = sum(goodput) / len(goodput)
        for label, part in (("pr", goodput[:8]), ("sack", goodput[8:])):
            normalized = sum(part) / len(part) / mean
            checks[f"fair_{label}_in_0.75_1.3"] = 0.75 <= normalized <= 1.3
    elif name == "cbr_forward":
        sent = scenario.source.packets_sent
        checks["delivered_ge_98pct"] = (
            scenario.sink.packets_received >= 0.98 * sent
        )
    return checks


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------
def fig6_argv(
    seed: int, duration: float, jobs: int, cache_dir: Path, json_path: Path
) -> List[str]:
    """The quick Figure 6 grid: 18 cells, six protocols."""
    return [
        "fig6",
        "--jobs", str(jobs),
        "--engine", "pure",
        "--seed", str(seed),
        "--duration", repr(duration),
        "--cache-dir", str(cache_dir),
        "--json", str(json_path),
    ]


def traced_cell_argv(
    seed: int, duration: float, tmp: Optional[Path]
) -> List[str]:
    """One Figure 6 cell; observed (trace + metrics out) when ``tmp`` is given."""
    argv = [
        "fig6",
        "--epsilons", "0",
        "--protocols", "tcp-pr",
        "--duration", repr(duration),
        "--no-cache",
        "--engine", "pure",
        "--seed", str(seed),
    ]
    if tmp is not None:
        argv += [
            "--trace-out", str(tmp / "trace.jsonl"),
            "--metrics-out", str(tmp / "metrics.jsonl"),
        ]
    return argv


def cli_commands(
    name: str, seed: int, size: float, jobs: int, tmp: Path
) -> List[List[str]]:
    """The ``python -m repro`` argument lists of one round, in order."""
    if name == "fig6_cli":
        argv = fig6_argv(seed, size, jobs, tmp / "cache", tmp / "fig6.json")
        # The identical command again: served from the cache, and its
        # report must be byte-identical to the cold one.
        return [argv, argv]
    if name == "scale_fattree":
        return [
            [
                "scale",
                "--topology", "fat-tree",
                "--fat-k", "4",
                "--hosts-per-edge", "2",
                "--arrival-rate", "5500",
                "--size-dist", "fixed",
                "--mean-size", "2",
                "--duration", repr(size),
                "--shards", "4",
                "--jobs", str(jobs),
                "--no-cache",
                "--engine", "pure",
                "--seed", str(seed),
                "--json", str(tmp / "scale.json"),
                "--metrics-out", str(tmp / "flows.jsonl"),
                "--spec-out", str(tmp / "scenario.json"),
            ]
        ]
    if name == "traced_cell":
        return [
            traced_cell_argv(seed, size, tmp),
            ["trace", "analyze", str(tmp / "trace.jsonl")],
        ]
    raise ValueError(f"{name!r} is not a CLI workload")


def timed_commands(name: str) -> Tuple[int, ...]:
    """Indices of the round's commands whose wall/cpu count as the round's.

    ``fig6_cli`` times the cold run only (the rerun is a check);
    ``traced_cell`` times the sum of both commands.
    """
    return (0,) if name in ("fig6_cli", "scale_fattree") else (0, 1)


def _line_count(path: Path, containing: bytes = b"") -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if containing in line)


def _collect_fig6(tmp: Path, stdouts: List[str], smoke: bool) -> Tuple[Any, Dict[str, bool], Dict[str, float]]:
    payload = json.loads((tmp / "fig6.json").read_text())
    table = payload["throughput_mbps"]
    cells = [value for row in table.values() for value in row.values()]
    pr_eps0 = table["tcp-pr"]["0.0"]
    checks = {
        "18_cells": len(cells) == 18,
        "all_cells_positive": all(value > 0 for value in cells),
        "warm_report_identical": stdouts[0] == stdouts[1],
    }
    if not smoke:
        # 8 simulated seconds: ~21.5 Mbps (paper's ~33 is steady state).
        checks["pr_eps0_ge_15mbps"] = pr_eps0 >= 15.0
    counts = {
        "exec.cells": len(cells),
        "experiments.fig6_pr_eps0_mbps": pr_eps0,
        "exec.cache_bytes": sum(
            path.stat().st_size
            for path in (tmp / "cache").rglob("*.json")
        ),
    }
    return payload, checks, counts


def _collect_scale(tmp: Path, stdouts: List[str], smoke: bool) -> Tuple[Any, Dict[str, bool], Dict[str, float]]:
    payload = json.loads((tmp / "scale.json").read_text())
    flows, completed = payload["flows"], payload["completed"]
    stream = tmp / "flows.jsonl"
    checks = {
        "no_failed_shards": payload["failed_shards"] == [],
        "no_dead_letters": payload["dead_letters"] == 0,
        "every_flow_streamed": _line_count(stream, b'"record": "flow"')
        == flows,
    }
    if not smoke:
        checks["completed_ge_99pct"] = completed >= 0.99 * flows
    counts = {
        "scenarios.flows": flows,
        "scenarios.completed_ratio": completed / flows if flows else 0.0,
        "scenarios.stream_bytes": stream.stat().st_size,
        "scenarios.worker_rss_kb": payload["max_rss_kb"],
    }
    return payload, checks, counts


def _collect_traced(tmp: Path, stdouts: List[str], smoke: bool) -> Tuple[Any, Dict[str, bool], Dict[str, float]]:
    trace, metrics = tmp / "trace.jsonl", tmp / "metrics.jsonl"
    events = _line_count(trace) - 1  # minus the header record
    analysis = stdouts[1]
    checks = {
        "trace_has_events": events > 0,
        "analyze_counts_every_event": f"trace: {events} packet events"
        in analysis,
        "analyze_reports_one_flow": "1 flow(s)" in analysis,
    }
    counts = {
        "traces.events": events,
        "obs.records": events + 1 + _line_count(metrics),
        "obs.bytes": trace.stat().st_size + metrics.stat().st_size,
    }
    outputs = {"trace_sha256": file_sha256(trace), "analysis": analysis}
    return outputs, checks, counts


_COLLECTORS: Dict[str, Callable[..., Tuple[Any, Dict[str, bool], Dict[str, float]]]] = {
    "fig6_cli": _collect_fig6,
    "scale_fattree": _collect_scale,
    "traced_cell": _collect_traced,
}


def collect_cli(
    name: str, tmp: Path, stdouts: List[str], smoke: bool
) -> Tuple[Any, Dict[str, bool], Dict[str, float]]:
    """``(outputs to digest, checks, counters)`` of one finished CLI round."""
    return _COLLECTORS[name](tmp, stdouts, smoke)
