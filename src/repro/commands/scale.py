"""``scale``: one declarative scenario sharded across the worker pool."""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from repro.cli import _finish
from repro.commands.sweep import (
    _cache_from,
    _failure_report,
    _write_observability,
)
from repro.exec import ParallelRunner, SweepError
from repro.scenarios import (
    SIZE_DISTRIBUTIONS,
    ScenarioSpec,
    ShardPlan,
    WorkloadSpec,
    format_scale,
    run_scale,
)
from repro.topologies import (
    DumbbellSpec,
    FatTreeSpec,
    MultipathMeshSpec,
    ParkingLotSpec,
    WanMeshSpec,
)


def _parse_variant_mix(items: Optional[List[str]]) -> Any:
    """Parse ``NAME=WEIGHT`` pairs (bare ``NAME`` means weight 1)."""
    if not items:
        return None
    mix = []
    for item in items:
        name, sep, weight = item.partition("=")
        mix.append((name, float(weight) if sep else 1.0))
    return tuple(mix)


def _scenario_from(args: argparse.Namespace) -> ScenarioSpec:
    """Build the scenario: a saved spec file, or the inline flag surface.

    A ``--spec`` file is taken verbatim except that a non-zero ``--seed``
    re-seeds it (seed 0 — the flag default — keeps the file's own seed).
    """
    if args.spec:
        scenario = ScenarioSpec.load(args.spec)
        if args.seed:
            scenario = scenario.with_seed(args.seed)
        return scenario
    if args.topology == "fat-tree":
        topology: Any = FatTreeSpec(
            k=args.fat_k,
            hosts_per_edge=args.hosts_per_edge,
            oversubscription=args.oversubscription,
            seed=args.seed,
        )
    elif args.topology == "wan-mesh":
        topology = WanMeshSpec(
            sites=args.sites,
            degree=args.site_degree,
            hosts_per_site=args.hosts_per_site,
            seed=args.seed,
        )
    elif args.topology == "dumbbell":
        topology = DumbbellSpec(num_pairs=args.pairs, seed=args.seed)
    elif args.topology == "parking-lot":
        topology = ParkingLotSpec(seed=args.seed)
    else:
        topology = MultipathMeshSpec(seed=args.seed)
    workload = WorkloadSpec(
        arrival="poisson",
        arrival_rate=args.arrival_rate,
        max_flows=args.max_flows,
        size=args.size_dist,
        mean_size_segments=args.mean_size,
        pareto_shape=args.pareto_shape,
        variant_mix=_parse_variant_mix(args.variant_mix) or (("tcp-pr", 1.0),),
    )
    return ScenarioSpec(
        topology=topology,
        workload=workload,
        duration=args.duration,
        seed=args.seed,
        name=args.name,
    )


def _cmd_scale(args: argparse.Namespace) -> int:
    """Run one declarative scenario sharded across the worker pool."""
    scenario = _scenario_from(args)
    if args.spec_out:
        path = scenario.save(args.spec_out)
        print(f"[scenario spec written to {path}]")
    shards = args.shards if args.shards is not None else max(args.jobs, 1)
    plan = ShardPlan(
        scenario=scenario,
        num_shards=shards,
        stream_path=args.metrics_out,
    )
    # Cached shard cells return their summary without re-writing the
    # per-flow stream, so a streamed run must execute every shard.
    cache = _cache_from(args)
    if args.metrics_out and cache is not None:
        cache = None
        print("[cache disabled: --metrics-out streams per-flow records]")
    runner = ParallelRunner(
        jobs=args.jobs,
        cache=cache,
        timeout=args.cell_timeout,
        retries=args.retries,
        backoff=args.retry_backoff,
        keep_going=args.keep_going,
        collect_metrics=False,
        collect_trace=bool(args.trace_out),
    )
    try:
        report = run_scale(plan, runner=runner)
    except SweepError as exc:
        print("sweep failed (scale):", file=sys.stderr)
        for error in exc.errors:
            print(f"  {error.summary()}", file=sys.stderr)
        return 1
    text = format_scale(report)
    failures = _failure_report(runner)
    if failures:
        text += "\n\n" + failures
    status = _finish(args, report.to_jsonable(), text)
    if args.metrics_out:
        print(f"[flow records streamed to {args.metrics_out}]")
    _write_observability(args, [runner.last_stats.telemetry], metrics=False)
    return 1 if failures else status


def add_parser(sub: Any, name: str, help_line: str, common: List[Any]) -> None:
    scale = sub.add_parser(name, help=help_line, parents=common)
    scale.add_argument(
        "--spec", metavar="PATH", default=None,
        help="load a saved ScenarioSpec JSON instead of the inline flags "
        "(a non-zero --seed re-seeds it)",
    )
    scale.add_argument(
        "--topology",
        choices=["fat-tree", "wan-mesh", "dumbbell", "parking-lot",
                 "multipath-mesh"],
        default="fat-tree",
    )
    scale.add_argument("--fat-k", type=int, default=4,
                       help="fat-tree arity k (even; default: 4)")
    scale.add_argument("--hosts-per-edge", type=int, default=2,
                       help="hosts per fat-tree edge switch")
    scale.add_argument("--oversubscription", type=float, default=1.0,
                       help="fat-tree uplink oversubscription ratio")
    scale.add_argument("--sites", type=int, default=8,
                       help="WAN-mesh site count")
    scale.add_argument("--site-degree", type=float, default=3.0,
                       help="WAN-mesh mean backbone degree")
    scale.add_argument("--hosts-per-site", type=int, default=1)
    scale.add_argument("--pairs", type=int, default=2,
                       help="dumbbell sender/receiver pairs")
    scale.add_argument("--arrival-rate", type=float, default=50.0,
                       help="Poisson flow arrivals per second")
    scale.add_argument("--max-flows", type=int, default=None,
                       help="hard cap on generated flows")
    scale.add_argument("--size-dist", choices=list(SIZE_DISTRIBUTIONS),
                       default="pareto")
    scale.add_argument("--mean-size", type=float, default=100.0,
                       help="mean flow size (segments)")
    scale.add_argument("--pareto-shape", type=float, default=1.3)
    scale.add_argument("--variant-mix", nargs="*", metavar="NAME[=WEIGHT]",
                       default=None,
                       help="TCP variant mix, e.g. tcp-pr=1 sack=1")
    scale.add_argument("--duration", type=float, default=30.0,
                       help="scenario horizon (simulated seconds)")
    scale.add_argument("--shards", type=int, default=None,
                       help="flow-group shards (default: max(--jobs, 1))")
    scale.add_argument("--name", default="scenario",
                       help="scenario name recorded in specs and streams")
    scale.add_argument("--spec-out", metavar="PATH", default=None,
                       help="also save the resolved ScenarioSpec as JSON")
    scale.set_defaults(func=_cmd_scale)
