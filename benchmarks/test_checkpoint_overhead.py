"""What periodic checkpointing costs the hot loop — and that it's <5%.

Runs the same TCP-PR dumbbell flow plain and with
``run(checkpoint_every=...)`` armed, **interleaved** (plain, armed,
plain, armed, ...) so CPU frequency drift and cache warmth hit both
sides equally, and asserts:

* bit-identicality — the armed run delivers the same segments and
  dispatches the same event count (checkpointing observes, never
  perturbs; the segmented driver only changes *when* ``run`` returns
  control, not what it simulates);
* the 5% overhead budget from the crash-safety PR, gated on the
  *amortized snapshot cost*: best-of per-``save_checkpoint`` wall time
  (a whole-graph pickle, tens of kilobytes here) × snapshots-per-run,
  over the best plain run.  Per-save cost is stable to measure; the
  raw armed/plain wall ratio at sub-second scale is not on a loaded CI
  machine, so — like ``test_obs_overhead.py`` — the end-to-end ratio
  is recorded and asserted only against a generous catastrophe ceiling.

Writes the measured trajectory to ``benchmarks/results/BENCH_ckpt.json``.
"""

import json
import statistics
import time

import pytest

from repro.app.bulk import BulkTransfer
from repro.checkpoint import save_checkpoint
from repro.topologies.dumbbell import DumbbellSpec
from repro.util.units import MBPS

from conftest import RESULTS_DIR, paper_scale

ROUNDS = 5
SAVE_ROUNDS = 10
OVERHEAD_BUDGET = 0.05
#: The armed/plain wall ratio only trips on a catastrophic regression
#: (e.g. the segmented driver falling off the fast dispatch path).
WALL_RATIO_CEILING = 1.25


def _build():
    net = DumbbellSpec(
        num_pairs=1, bottleneck_bandwidth=10 * MBPS, seed=1
    ).build().network
    flow = BulkTransfer(net, "tcp-pr", "s0", "d0", flow_id=1)
    return net, flow


def _run_flow(duration, every=None, path=None):
    net, flow = _build()
    started = time.perf_counter()  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
    if every is None:
        net.run(until=duration)
    else:
        net.run(until=duration, checkpoint_every=every, checkpoint_path=path)
    elapsed = time.perf_counter() - started  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
    return flow.delivered_segments, net.sim.dispatched_events, elapsed


@pytest.mark.bench_smoke
def test_checkpoint_overhead(tmp_path):
    duration = 25.0 if paper_scale() else 8.0
    every = duration / 4.0  # snapshots at 1/4, 2/4, 3/4 (none at the end)
    snapshots_per_run = 3
    ckpt = tmp_path / "bench.ckpt"

    plain_times, armed_times = [], []
    plain_sig = armed_sig = None
    for _ in range(ROUNDS):  # interleaved A/B: drift hits both sides
        delivered, events, elapsed = _run_flow(duration)
        plain_sig = (delivered, events)
        plain_times.append(elapsed)
        delivered, events, elapsed = _run_flow(duration, every, ckpt)
        armed_sig = (delivered, events)
        armed_times.append(elapsed)

    assert armed_sig == plain_sig, (
        f"checkpointing perturbed the simulation: {armed_sig} != {plain_sig}"
    )
    assert ckpt.exists()

    # The budget gate: per-snapshot cost on the real mid-run graph,
    # amortized over one plain run.
    net, _ = _build()
    net.run(until=duration / 2.0)
    save_times = []
    for _ in range(SAVE_ROUNDS):
        started = time.perf_counter()  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
        save_checkpoint(net.sim, ckpt)
        save_times.append(time.perf_counter() - started)  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
    amortized = snapshots_per_run * min(save_times) / min(plain_times)
    assert amortized < OVERHEAD_BUDGET, (
        f"{snapshots_per_run} snapshots cost {amortized:.1%} of a run "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )

    wall_ratio = min(armed_times) / min(plain_times)
    assert wall_ratio < WALL_RATIO_CEILING, (
        f"armed run {wall_ratio:.2f}x plain (ceiling {WALL_RATIO_CEILING}x)"
    )

    report = {
        "scenario": "tcp-pr dumbbell, 1 pair, 10 Mbps",
        "duration": duration,
        "checkpoint_every": every,
        "snapshots_per_run": snapshots_per_run,
        "rounds": ROUNDS,
        "dispatched_events": plain_sig[1],
        "checkpoint_bytes": ckpt.stat().st_size,
        "points": [
            {"mode": "plain", "best_s": round(min(plain_times), 4),
             "median_s": round(statistics.median(plain_times), 4)},
            {"mode": "checkpointed", "best_s": round(min(armed_times), 4),
             "median_s": round(statistics.median(armed_times), 4)},
        ],
        "snapshot_best_s": round(min(save_times), 5),
        "amortized_overhead_pct": round(amortized * 100, 2),
        "budget_pct": round(OVERHEAD_BUDGET * 100, 2),
        "wall_ratio": round(wall_ratio, 3),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_ckpt.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{json.dumps(report, indent=2)}\n[saved to {path}]")
