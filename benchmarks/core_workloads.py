"""Core-throughput workload definitions (see test_core_throughput.py).

Shared by the committed benchmark gate and the one-off baseline capture
that was run against the *seed* implementation (per-packet drop timers,
closure dispatch) before the hot-path overhaul.  Two kinds of workload:

* **Engine microbenchmarks** — raw schedule/dispatch throughput of the
  event loop under the two component idioms: the legacy one (a fresh
  closure plus an f-string label per event, what every per-packet timer
  paid before the overhaul) and the hot one (bound callable + ``args``
  tuple + precomputed label via :meth:`Simulator.post`, what the packet
  path pays now).  Metric: dispatched events per wall second.
* **Figure workloads** — end-to-end slices of the paper's figure
  scenarios (fairness dumbbell, multipath mesh, a lone TCP-PR bulk
  flow), measuring wall seconds and engine events per wall second.

All workloads use fixed seeds; wall time is the only nondeterministic
output.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

N_MICRO_EVENTS = 150_000


def _timed(fn: Callable[[], int]) -> Dict[str, Any]:
    started = time.perf_counter()  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
    events = fn()
    wall = time.perf_counter() - started  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall,
    }


# ----------------------------------------------------------------------
# Engine microbenchmarks
# ----------------------------------------------------------------------
def engine_micro_legacy() -> Dict[str, Any]:
    """Seed-era idiom: per-event closure + f-string label."""
    from repro.sim import Simulator

    def run() -> int:
        sim = Simulator()
        count = 0

        def tick(i: int) -> None:
            nonlocal count
            count += 1
            if count < N_MICRO_EVENTS:
                sim.schedule_in(
                    0.001, lambda: tick(i + 1), label=f"pr timer f1 s{i}"
                )

        sim.schedule(0.0, lambda: tick(0))
        sim.run()
        return count

    return _timed(run)


def engine_micro_hot() -> Dict[str, Any]:
    """Overhauled idiom: fire-and-forget post() + args + static label."""
    from repro.sim import Simulator

    def run() -> int:
        sim = Simulator()
        post_in = sim.post_in  # cached bound method, like the link hot path
        count = 0

        def tick(i: int) -> None:
            nonlocal count
            count += 1
            if count < N_MICRO_EVENTS:
                # Positional args, like the link hot path.
                post_in(0.001, tick, (i + 1,), "pr timer")

        sim.post(0.0, tick, (0,))
        sim.run()
        return count

    return _timed(run)


# ----------------------------------------------------------------------
# Figure workloads
# ----------------------------------------------------------------------
def fig2_fairness_workload(duration: float = 25.0) -> Dict[str, Any]:
    """Figure 2 slice: 8 mixed TCP-PR/SACK flows on the dumbbell."""
    from repro.experiments.runner import build_fairness_scenario

    scenario = build_fairness_scenario(
        topology="dumbbell", total_flows=8, seed=1
    )

    def run() -> int:
        scenario.network.run(until=duration)
        return scenario.network.sim.dispatched_events

    return _timed(run)


def fig6_multipath_workload(duration: float = 15.0) -> Dict[str, Any]:
    """Figure 6 slice: one TCP-PR flow over the reordering mesh."""
    from repro.app.bulk import BulkTransfer
    from repro.topologies.multipath_mesh import (
        MultipathMeshSpec,
        install_epsilon_routing,
    )

    net = MultipathMeshSpec(link_delay=0.01, seed=2).build().network
    install_epsilon_routing(net, epsilon=0.01, reorder_acks=True)
    BulkTransfer(net, "tcp-pr", "src", "dst", flow_id=1)

    def run() -> int:
        net.run(until=duration)
        return net.sim.dispatched_events

    return _timed(run)


def pr_bulk_workload(duration: float = 25.0) -> Dict[str, Any]:
    """A lone 10 Mbps TCP-PR bulk flow (timer-path dominated)."""
    from repro.app.bulk import BulkTransfer
    from repro.topologies.dumbbell import DumbbellSpec
    from repro.util.units import MBPS

    net = DumbbellSpec(
        num_pairs=1, bottleneck_bandwidth=10 * MBPS, seed=3
    ).build().network
    BulkTransfer(net, "tcp-pr", "s0", "d0", flow_id=1)

    def run() -> int:
        net.run(until=duration)
        return net.sim.dispatched_events

    return _timed(run)


FIGURE_WORKLOADS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "fig2_fairness": fig2_fairness_workload,
    "fig6_multipath": fig6_multipath_workload,
    "pr_bulk": pr_bulk_workload,
}


def measure(include_hot: bool = True) -> Dict[str, Any]:
    """Run every workload once and collect the measurements."""
    results: Dict[str, Any] = {
        "engine_micro_legacy": engine_micro_legacy(),
    }
    if include_hot:
        results["engine_micro_hot"] = engine_micro_hot()
    for name, workload in FIGURE_WORKLOADS.items():
        results[name] = workload()
    return results


if __name__ == "__main__":
    import json
    import sys

    from repro.sim import Simulator

    include_hot = hasattr(Simulator, "post")
    json.dump(measure(include_hot=include_hot), sys.stdout, indent=1)
    print()
