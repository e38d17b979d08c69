"""``obs summary|convert``: inspect a ``repro.obs/v1`` record stream."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any, List

from repro.obs import read_jsonl, summarize_records, write_csv


def _cmd_obs(args: argparse.Namespace) -> int:
    """Inspect or convert an existing ``repro.obs/v1`` record stream."""
    # The file may come from anywhere (hand-edited, cut off mid-line), so
    # inspection skips an unparseable line and reports the count as a
    # RuntimeWarning.
    records = read_jsonl(args.file, on_invalid="skip")
    if args.obs_command == "summary":
        print(summarize_records(records))
        return 0
    output = args.output or str(Path(args.file).with_suffix(".csv"))
    path = write_csv(records, output)
    print(f"[csv written to {path}]")
    return 0


def add_parser(sub: Any, name: str, help_line: str, common: List[Any]) -> None:
    engine = common[-1]
    obs = sub.add_parser(name, help=help_line)
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary", help="print a human-readable digest of FILE",
        parents=[engine],
    )
    obs_summary.add_argument("file", metavar="FILE", help="JSONL record stream")
    obs_summary.set_defaults(func=_cmd_obs)
    obs_convert = obs_sub.add_parser(
        "convert", help="convert FILE (JSONL) to CSV", parents=[engine]
    )
    obs_convert.add_argument("file", metavar="FILE", help="JSONL record stream")
    obs_convert.add_argument(
        "-o",
        "--output",
        default=None,
        help="output CSV path (default: FILE with a .csv suffix)",
    )
    obs_convert.set_defaults(func=_cmd_obs)
