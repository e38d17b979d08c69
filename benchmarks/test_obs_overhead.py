"""Observability overhead: what instrumentation costs — and doesn't.

Runs the same TCP-PR dumbbell flow three ways — detached (no registry
anywhere), with a full ambient :class:`~repro.obs.Instrumentation`
attached, and with ``Simulator(profile=True)`` — asserts the simulation
itself is bit-identical in all three (the zero-cost-when-detached
contract is about *behavior*, not just speed), and writes the timing
trajectory to ``benchmarks/results/BENCH_obs.json``.

The detached run *is* the engine microbenchmark baseline: the push
hooks' only detached cost is one ``is not None`` check per hook site,
which is what keeps the regression vs the pre-observability engine
within noise (the ≤2% budget).  Attached overhead is real and recorded;
it is asserted only against a generous ceiling so the benchmark stays
robust on loaded CI machines.
"""

import json
import statistics
import time

from repro.app.bulk import BulkTransfer
from repro.obs import Instrumentation, ambient
from repro.sim import Simulator
from repro.topologies.dumbbell import DumbbellSpec
from repro.util.units import MBPS

from conftest import RESULTS_DIR, paper_scale

ROUNDS = 5


def _run_flow(duration, instrumented=False, profiled=False):
    sim = Simulator(seed=1, profile=profiled) if profiled else None
    net = DumbbellSpec(
        num_pairs=1, bottleneck_bandwidth=10 * MBPS, seed=1
    ).build(sim=sim).network
    flow = BulkTransfer(net, "tcp-pr", "s0", "d0", flow_id=1)
    inst = Instrumentation() if instrumented else None
    if inst is not None:
        inst.attach(net)
    started = time.perf_counter()  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
    net.run(until=duration)
    elapsed = time.perf_counter() - started  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
    return flow.delivered_segments, net.sim.dispatched_events, elapsed, inst


def _best_of(rounds, duration, **mode):
    times = []
    delivered = events = None
    for _ in range(rounds):
        delivered, events, elapsed, _ = _run_flow(duration, **mode)
        times.append(elapsed)
    return delivered, events, min(times), statistics.median(times)


def test_obs_overhead():
    duration = 20.0 if paper_scale() else 5.0

    detached = _best_of(ROUNDS, duration)
    attached = _best_of(ROUNDS, duration, instrumented=True)
    profiled = _best_of(ROUNDS, duration, profiled=True)

    # The contract that matters: instrumentation and profiling observe
    # the simulation without perturbing it.
    assert attached[0] == detached[0], "instrumentation changed delivery"
    assert attached[1] == detached[1], "instrumentation changed event count"
    assert profiled[0] == detached[0], "profiling changed delivery"
    assert profiled[1] == detached[1], "profiling changed event count"

    # And the metrics really were recorded on the attached run.
    _, _, _, inst = _run_flow(duration, instrumented=True)
    assert len(inst.registry) > 0
    assert inst.registry.get("flow.cwnd", flow=1, variant="tcp-pr") is not None

    attached_overhead = attached[2] / detached[2] - 1.0
    profiled_overhead = profiled[2] / detached[2] - 1.0
    # Generous ceiling: the per-ACK probe work must stay the same order
    # as the simulation itself, not dominate it.
    assert attached_overhead < 0.50, (
        f"attached instrumentation cost {attached_overhead:.1%} (>50%)"
    )

    report = {
        "scenario": "tcp-pr dumbbell, 1 pair, 10 Mbps",
        "duration": duration,
        "rounds": ROUNDS,
        "dispatched_events": detached[1],
        "points": [
            {"mode": "detached", "best_s": round(detached[2], 4),
             "median_s": round(detached[3], 4)},
            {"mode": "attached", "best_s": round(attached[2], 4),
             "median_s": round(attached[3], 4)},
            {"mode": "profiled", "best_s": round(profiled[2], 4),
             "median_s": round(profiled[3], 4)},
        ],
        "attached_overhead_pct": round(attached_overhead * 100, 2),
        "profiled_overhead_pct": round(profiled_overhead * 100, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_obs.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{json.dumps(report, indent=2)}\n[saved to {path}]")
