"""Scale-out scenario benchmark tier (``-m bench_scale``).

Runs sharded fat-tree scenarios through :func:`repro.scenarios.run_scale`
and records flows/sec and peak RSS into
``benchmarks/results/BENCH_scale.json``.  Two tiers:

* ``-m bench_scale -k smoke`` — a ~2k-flow fat-tree sharded across 4
  workers, a few seconds; asserts the bounded-memory contract (peak
  worker RSS under a generous absolute ceiling — each flow is retired
  at the ACK that completes it, so RSS tracks the *live* population,
  not the total).
* ``-m bench_scale -k 100k`` — the acceptance run: a >=100k-flow
  fat-tree scenario sharded across the pool, streaming per-flow records
  to disk, with the same RSS ceiling.

The ceilings are absolute (not host-normalized): the thing being
guarded is memory *growth with population size*, which is
host-invariant — a regression that accumulates per-flow state blows
past the ceiling on any host.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

import pytest

from repro.scenarios import ScenarioSpec, ShardPlan, WorkloadSpec, run_scale
from repro.topologies import FatTreeSpec

BENCH_PATH = Path(__file__).parent / "results" / "BENCH_scale.json"

#: Peak RSS ceiling per shard worker, KiB.  Forked workers inherit the
#: parent interpreter's footprint (~40 MiB with the test harness), so
#: the ceiling is generous — what matters is that it does NOT scale
#: with the flow population (100k flows x ~1 KiB of retained per-flow
#: state would add ~100 MiB and trip it).  It is far too loose to see
#: finished flows kept even one simulated second too long (~1,400 per
#: shard at 5,500 arrivals/s, ~20 MiB); ``tests/test_scenarios_shard.py``
#: bounds the live set itself.
RSS_CEILING_KB = 300_000


def _jobs() -> int:
    # At least 2 so the run genuinely crosses process boundaries, even
    # on single-core CI runners.
    return max(2, min(os.cpu_count() or 2, 8))


def _scenario(arrival_rate: float, duration: float, name: str) -> ScenarioSpec:
    return ScenarioSpec(
        topology=FatTreeSpec(k=4, hosts_per_edge=2),
        workload=WorkloadSpec(
            arrival="poisson",
            arrival_rate=arrival_rate,
            size="fixed",
            mean_size_segments=2.0,
        ),
        duration=duration,
        seed=11,
        name=name,
    )


def _run_and_record(section: str, scenario: ScenarioSpec, num_shards: int,
                    stream_path: str | None = None) -> dict:
    plan = ShardPlan(scenario=scenario, num_shards=num_shards,
                     stream_path=stream_path)
    start = time.perf_counter()  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)
    report = run_scale(plan, jobs=_jobs())
    wall = time.perf_counter() - start  # lint: allow-wallclock(benchmark harness measures real elapsed wall time by design)

    assert report.complete
    # 2-segment flows finish almost immediately; only arrivals right at
    # the horizon can be cut off mid-transfer.
    assert report.completed >= 0.99 * report.flows
    assert report.max_rss_kb < RSS_CEILING_KB, (
        f"peak worker RSS {report.max_rss_kb} KiB exceeds the "
        f"{RSS_CEILING_KB} KiB ceiling — per-flow state is accumulating"
    )
    parent_children_kb = int(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )

    entry = {
        "flows": report.flows,
        "wall_s": round(wall, 3),
        "flows_per_sec": round(report.flows / wall, 1),
        "shards": num_shards,
        "jobs": _jobs(),
        "max_rss_kb": report.max_rss_kb,
        "children_max_rss_kb": parent_children_kb,
        "goodput_mbps": round(report.goodput_mbps, 3),
    }
    data = {}
    if BENCH_PATH.exists():
        data = json.loads(BENCH_PATH.read_text())
    data[section] = entry
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\n[bench_scale:{section}] {entry}")
    return entry


@pytest.mark.bench_scale
def test_scale_smoke(tmp_path):
    """~2k flows, 4 shards: the CI gate for the bounded-memory contract."""
    scenario = _scenario(arrival_rate=100.0, duration=20.0, name="smoke")
    entry = _run_and_record(
        "smoke", scenario, num_shards=4,
        stream_path=str(tmp_path / "smoke-flows.jsonl"),
    )
    assert entry["flows"] > 1_500


@pytest.mark.bench_scale
def test_scale_fat_tree_100k(tmp_path):
    """The acceptance run: >=100k flows sharded across the worker pool,
    streaming per-flow records, peak RSS bounded."""
    scenario = _scenario(arrival_rate=4_400.0, duration=25.0,
                         name="fat-tree-100k")
    stream = tmp_path / "100k-flows.jsonl"
    entry = _run_and_record(
        "fat_tree_100k", scenario, num_shards=2 * _jobs(),
        stream_path=str(stream),
    )
    assert entry["flows"] >= 100_000
    # The stream carries one record per flow plus header/shard records.
    with stream.open() as handle:
        flow_lines = sum(
            1 for line in handle if '"record": "flow"' in line
        )
    assert flow_lines == entry["flows"]
