"""Not a command: the executor plumbing (runner, cache, failure summary,
telemetry export) shared by the sweep-running ``figures`` and ``scale``."""

from __future__ import annotations

import argparse
from typing import Any, List, Optional

from repro import cli
from repro.exec import ParallelRunner, ResultCache
from repro.exec.telemetry import SweepTelemetry


def _cache_from(args: argparse.Namespace) -> Optional[ResultCache]:
    return None if args.no_cache else ResultCache(args.cache_dir)


def _runner_from(args: argparse.Namespace) -> ParallelRunner:
    """One runner per invocation, so ``last_stats`` survives the sweep."""
    return ParallelRunner(
        jobs=args.jobs,
        cache=_cache_from(args),
        timeout=args.cell_timeout,
        retries=args.retries,
        backoff=args.retry_backoff,
        keep_going=args.keep_going,
        collect_metrics=bool(args.metrics_out),
        collect_trace=bool(args.trace_out),
    )


def _write_observability(
    args: argparse.Namespace, telemetries: List[Any], metrics: bool = True
) -> None:
    """Stream sweep telemetry to ``--metrics-out`` (unless ``scale``, whose
    shards wrote it) and ``--trace-out``; note cells the cache served."""
    telemetries = [telemetry for telemetry in telemetries if telemetry is not None]

    def export(kind: str, target: str, stream: Any) -> None:
        records = (
            record for telemetry in telemetries for record in stream(telemetry)
        )
        path = cli.write_jsonl(records, target, command=args.command)
        print(f"[{kind} written to {path}]")

    metrics_out = args.metrics_out if metrics else None
    if metrics_out:
        export("metrics", metrics_out, SweepTelemetry.metric_records)
    if args.trace_out:
        export("trace", args.trace_out, SweepTelemetry.trace_lines)
    cached = sum(telemetry.cached for telemetry in telemetries)
    if cached and (metrics_out or args.trace_out):
        total = sum(telemetry.total for telemetry in telemetries)
        print(
            f"[{cached} of {total} cells came from the cache and carry no "
            f"metric/trace records; rerun with --no-cache to collect them]"
        )


def _failure_report(runner: ParallelRunner) -> str:
    """Human-readable summary of any failed cells (empty when clean)."""
    stats = runner.last_stats
    if not stats.errors:
        return ""
    lines = [
        f"{len(stats.errors)} of {stats.total} cells failed "
        f"({stats.timed_out} timed out, {stats.retried} retried):"
    ]
    lines.extend(f"  {error.summary()}" for error in stats.errors)
    return "\n".join(lines)
