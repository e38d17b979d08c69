"""Not a command: the executor plumbing (runner, cache, failure summary,
telemetry export) shared by the sweep-running ``figures`` and ``scale``."""

from __future__ import annotations

import argparse
from typing import Any, List, Optional

from repro import cli
from repro.exec import ParallelRunner, ResultCache


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
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )


def _write_observability(args: argparse.Namespace, telemetries: List[Any]) -> None:
    """Serialize collected sweep telemetry to ``--metrics-out``/``--trace-out``."""
    telemetries = [telemetry for telemetry in telemetries if telemetry is not None]
    if args.metrics_out:
        records = [
            record
            for telemetry in telemetries
            for record in telemetry.metric_records()
        ]
        path = cli.write_jsonl(records, args.metrics_out, command=args.command)
        print(f"[metrics written to {path}]")
    if args.trace_out:
        records = [
            record
            for telemetry in telemetries
            for record in telemetry.trace_records()
        ]
        path = cli.write_jsonl(records, args.trace_out, command=args.command)
        print(f"[trace written to {path}]")


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
