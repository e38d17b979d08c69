"""``trace analyze|replay|convert``: the trace pipeline (docs/TRACES.md)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, List

from repro.cli import _finish
from repro.obs import read_jsonl
from repro.traces import (
    ReorderProfile,
    TraceStream,
    analyze_stream,
    convert_capture,
    distill_profile,
    format_report,
    replay_flow_workload,
    replay_profile,
)


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    """Pcap-style reordering analytics over a ``--trace-out`` stream."""
    stream = TraceStream.from_jsonl(args.file)
    report = analyze_stream(stream)
    if args.flow is not None:
        from repro.traces import FlowKey

        key = FlowKey(cell=args.cell, flow_id=args.flow)
        if key not in report.flows:
            known = ", ".join(str(k) for k in sorted(report.flows)) or "none"
            print(
                f"flow {key} not in {args.file} (flows: {known})",
                file=sys.stderr,
            )
            return 1
        report.flows = {key: report.flows[key]}
    return _finish(args, report.to_jsonable(), format_report(report))


def _load_profile(args: argparse.Namespace) -> ReorderProfile:
    """A profile from FILE: saved profile JSON, or distilled from a trace."""
    records = read_jsonl(args.file)
    if len(records) == 1 and records[0].get("record") == "reorder_profile":
        return ReorderProfile.from_record(records[0])
    return distill_profile(
        TraceStream(records),
        flow_id=args.flow,
        cell=args.cell,
        name=str(args.file),
    )


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay a trace (or saved profile) as a simulator scenario."""
    try:
        profile = _load_profile(args)
    except ValueError as exc:
        print(f"cannot build a replay profile: {exc}", file=sys.stderr)
        return 1
    print(profile.summary())
    if args.profile_out:
        path = profile.save(args.profile_out)
        print(f"[profile written to {path}]")
    if args.variant:
        goodput = replay_flow_workload(
            profile,
            variant=args.variant,
            duration=args.duration,
            seed=args.seed,
        )
        text = (
            f"closed-loop replay: {args.variant} over the profile link for "
            f"{args.duration:g} s -> {goodput:.2f} Mbps goodput"
        )
        payload: Any = {
            "mode": "closed-loop",
            "variant": args.variant,
            "duration": args.duration,
            "seed": args.seed,
            "goodput_mbps": goodput,
            "profile": profile.to_record(),
        }
        return _finish(args, payload, text)
    result = replay_profile(profile, seed=args.seed)
    extent = result.report.extent_summary()
    text = (
        f"open-loop replay (seed {args.seed}): injected {result.injected}, "
        f"delivered {result.delivered}, dropped {result.dropped}\n"
        f"reordered {result.report.reordered} "
        f"({result.reorder_ratio:.2%}), extent mean={extent['mean']:.2f} "
        f"max={extent['max']:.0f}"
    )
    payload = {
        "mode": "open-loop",
        "seed": args.seed,
        "injected": result.injected,
        "delivered": result.delivered,
        "dropped": result.dropped,
        "reorder_ratio": result.reorder_ratio,
        "reorder_density": result.reorder_density,
        "extent": extent,
        "profile": profile.to_record(),
    }
    return _finish(args, payload, text)


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    """Import an external capture CSV into the ``repro.obs/v1`` schema."""
    output = args.output or str(Path(args.file).with_suffix(".jsonl"))
    path = convert_capture(args.file, output, command="trace convert")
    print(f"[trace written to {path}]")
    return 0


def add_parser(sub: Any, name: str, help_line: str, common: List[Any]) -> None:
    trace = sub.add_parser(name, help=help_line)
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_analyze = trace_sub.add_parser(
        "analyze",
        help="pcap-style reordering analytics over a --trace-out stream",
        parents=common,
    )
    trace_analyze.add_argument("file", metavar="FILE",
                               help="repro.obs/v1 JSONL trace stream")
    trace_analyze.add_argument("--flow", type=int, default=None,
                               help="restrict the report to one flow id")
    trace_analyze.add_argument("--cell", default="",
                               help="sweep-cell tag of the flow (sweep traces)")
    trace_analyze.set_defaults(func=_cmd_trace_analyze)
    trace_replay = trace_sub.add_parser(
        "replay",
        help="distill FILE into a ReorderProfile and re-run it as a "
        "simulator scenario",
        parents=common,
    )
    trace_replay.add_argument("file", metavar="FILE",
                              help="trace stream (JSONL) or saved profile "
                              "(.profile.json)")
    trace_replay.add_argument("--flow", type=int, default=None,
                              help="flow id to distill from a trace stream")
    trace_replay.add_argument("--cell", default="",
                              help="sweep-cell tag of the flow")
    trace_replay.add_argument("--variant", default=None,
                              help="closed-loop mode: run this TCP variant "
                              "over the profile link instead of the "
                              "open-loop packet replay")
    trace_replay.add_argument("--duration", type=float, default=30.0,
                              help="closed-loop run length in seconds "
                              "(default: 30)")
    trace_replay.add_argument("--profile-out", metavar="PATH", default=None,
                              help="also save the distilled profile as JSON")
    trace_replay.set_defaults(func=_cmd_trace_replay)
    trace_convert = trace_sub.add_parser(
        "convert",
        help="import an external capture CSV as a repro.obs/v1 trace",
        parents=common,
    )
    trace_convert.add_argument("file", metavar="CSV",
                               help="capture table (see docs/TRACES.md)")
    trace_convert.add_argument("-o", "--output", default=None,
                               help="output JSONL path (default: CSV with a "
                               ".jsonl suffix)")
    trace_convert.set_defaults(func=_cmd_trace_convert)
