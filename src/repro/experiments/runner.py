"""Shared experiment machinery: fairness scenarios (Sections 4's setup).

A *fairness scenario* runs an equal number of flows of two protocols
(TCP-PR and TCP-SACK in the paper) between a common source and
destination over a chosen topology, measures each flow's goodput over the
last ``measure_window`` seconds, and reports the paper's fairness
metrics.

:class:`FairnessResult` is what Figures 2-4 cache, so this module loads
no simulator code until a scenario is built: a cache-warm sweep decodes
the result without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.experiments.serialize import register_result_type
from repro.util.units import MBPS

if TYPE_CHECKING:
    from repro.app.bulk import BulkTransfer
    from repro.core.pr import PrConfig
    from repro.net.network import Network
    from repro.obs.monitors import FlowThroughputMonitor
    from repro.tcp.base import TcpConfig
    from repro.topologies.base import Topology
    from repro.topologies.dumbbell import DumbbellSpec
    from repro.topologies.parking_lot import ParkingLotSpec


@dataclass
class FairnessScenario:
    """A constructed-but-not-yet-run fairness experiment."""

    network: Network
    topology: str
    flows: List[BulkTransfer]
    monitors: List[FlowThroughputMonitor]
    cross_flows: List[BulkTransfer] = field(default_factory=list)
    bottleneck_links: List[str] = field(default_factory=list)


@register_result_type
@dataclass
class FairnessResult:
    """Outcome of a fairness run (the quantities plotted in Figs 2-4).

    Registered with the serializer so the sweep executor's result cache
    (:mod:`repro.exec.cache`) can round-trip it: every field is
    JSON-able with string keys.
    """

    topology: str
    total_flows: int
    duration: float
    measure_window: float
    #: protocol -> per-flow goodput (bits/second) over the window.
    throughputs: Dict[str, List[float]]
    #: protocol -> per-flow normalized throughput (over all flows).
    normalized: Dict[str, List[float]]
    #: protocol -> mean normalized throughput (Figure 2's headline).
    mean_normalized: Dict[str, float]
    #: protocol -> coefficient of variation of normalized throughput.
    cov: Dict[str, float]
    #: Aggregate bottleneck drop fraction (Figure 3's x-axis).
    loss_rate: float

    def mean_mbps(self, protocol: str) -> float:
        values = self.throughputs[protocol]
        return sum(values) / len(values) / MBPS


def build_fairness_scenario(
    topology: str = "dumbbell",
    total_flows: int = 8,
    variant_a: str = "tcp-pr",
    variant_b: str = "sack",
    pr_config: Optional[PrConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
    dumbbell_spec: Optional[DumbbellSpec] = None,
    parking_spec: Optional[ParkingLotSpec] = None,
    seed: int = 0,
    monitor_interval: float = 0.5,
    start_stagger: float = 2.0,
) -> FairnessScenario:
    """Build a half-``variant_a`` / half-``variant_b`` fairness scenario.

    All main flows share one source host and one destination host (the
    paper: "these flows have a common source and destination").  On the
    parking lot, six long-lived TCP-SACK cross-traffic flows are added on
    Figure 1's (CSi, CDj) pairs.  Flow start times are staggered
    uniformly over ``start_stagger`` seconds to avoid phase effects.
    """
    from repro.app.bulk import BulkTransfer
    from repro.core.pr import PrConfig
    from repro.obs import maybe_observe
    from repro.obs.monitors import FlowThroughputMonitor
    from repro.tcp.base import TcpConfig
    from repro.topologies.dumbbell import DumbbellSpec
    from repro.topologies.parking_lot import CROSS_TRAFFIC_PAIRS, ParkingLotSpec

    if total_flows < 2 or total_flows % 2 != 0:
        raise ValueError(f"total_flows must be even and >= 2, got {total_flows}")

    built: Topology
    if topology == "dumbbell":
        # Fat access links by default so the r0->r1 link is the unique
        # bottleneck even with every flow sharing one source host.
        spec = (
            dumbbell_spec
            if dumbbell_spec is not None
            else DumbbellSpec(
                num_pairs=1,
                access_bandwidth=100 * MBPS,
                access_delay=1e-3,
                seed=seed,
            )
        )
        built = spec.build()
    elif topology == "parking-lot":
        pspec = (
            parking_spec if parking_spec is not None else ParkingLotSpec(seed=seed)
        )
        built = pspec.build()
    else:
        raise ValueError(f"unknown topology {topology!r}")
    network = built.network
    src, dst = built.senders[0], built.receivers[0]
    bottlenecks = list(built.bottlenecks)

    rng = network.sim.rng.stream("fairness-starts")
    flows: List[BulkTransfer] = []
    monitors: List[FlowThroughputMonitor] = []
    for i in range(total_flows):
        variant = variant_a if i < total_flows // 2 else variant_b
        flow = BulkTransfer(
            network,
            variant,
            src,
            dst,
            flow_id=i + 1,
            start_at=rng.uniform(0.0, start_stagger),
            tcp_config=TcpConfig(**vars(tcp_config)) if tcp_config else None,
            pr_config=PrConfig(**vars(pr_config)) if pr_config else None,
        )
        flows.append(flow)
        monitors.append(
            FlowThroughputMonitor(
                network.sim, flow.receiver, flow.mss_bytes, monitor_interval
            )
        )

    cross_flows: List[BulkTransfer] = []
    if topology == "parking-lot":
        for k, (cs, cd) in enumerate(CROSS_TRAFFIC_PAIRS):
            cross_flows.append(
                BulkTransfer(
                    network,
                    "sack",
                    cs,
                    cd,
                    flow_id=1000 + k,
                    start_at=rng.uniform(0.0, start_stagger),
                )
            )

    maybe_observe(network)
    return FairnessScenario(
        network=network,
        topology=topology,
        flows=flows,
        monitors=monitors,
        cross_flows=cross_flows,
        bottleneck_links=bottlenecks,
    )


def run_fairness_scenario(
    scenario: FairnessScenario,
    duration: float = 90.0,
    measure_window: float = 60.0,
) -> FairnessResult:
    """Run a built scenario and compute the fairness metrics."""
    from repro.analysis.fairness import (
        coefficient_of_variation,
        mean_normalized_throughput,
        normalized_throughputs,
    )

    if measure_window >= duration:
        raise ValueError("measure_window must be shorter than duration")
    network = scenario.network
    network.run(until=duration)

    throughputs: Dict[str, List[float]] = {}
    ordered_values: List[float] = []
    for flow, monitor in zip(scenario.flows, scenario.monitors):
        goodput = monitor.last_window_goodput_bps(measure_window)
        throughputs.setdefault(flow.variant, []).append(goodput)
        ordered_values.append(goodput)

    all_normalized = normalized_throughputs(ordered_values)
    normalized: Dict[str, List[float]] = {}
    for flow, value in zip(scenario.flows, all_normalized):
        normalized.setdefault(flow.variant, []).append(value)

    mean_norm = mean_normalized_throughput(throughputs)
    cov = {
        protocol: coefficient_of_variation(values)
        for protocol, values in normalized.items()
    }

    arrivals = 0
    drops = 0
    for name in scenario.bottleneck_links:
        src, dst = name.split("->")
        link = network.link(src, dst)
        arrivals += link.arrived_packets
        drops += link.total_drops
    loss_rate = drops / arrivals if arrivals else 0.0

    return FairnessResult(
        topology=scenario.topology,
        total_flows=len(scenario.flows),
        duration=duration,
        measure_window=measure_window,
        throughputs=throughputs,
        normalized=normalized,
        mean_normalized=mean_norm,
        cov=cov,
        loss_rate=loss_rate,
    )


def run_fairness(
    topology: str = "dumbbell",
    total_flows: int = 8,
    duration: float = 90.0,
    measure_window: float = 60.0,
    **build_kwargs,
) -> FairnessResult:
    """Convenience wrapper: build and run a fairness scenario."""
    scenario = build_fairness_scenario(
        topology=topology, total_flows=total_flows, **build_kwargs
    )
    return run_fairness_scenario(scenario, duration, measure_window)
