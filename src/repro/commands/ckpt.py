"""``ckpt inspect``: describe ``repro.ckpt/v1`` checkpoint files."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List


def _cmd_ckpt_inspect(args: argparse.Namespace) -> int:
    """Describe a ``repro.ckpt/v1`` file without unpickling its graph."""
    from repro.checkpoint import CheckpointError, inspect_checkpoint

    try:
        info = inspect_checkpoint(args.file)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def add_parser(sub: Any, name: str, help_line: str, common: List[Any]) -> None:
    engine = common[-1]
    ckpt = sub.add_parser(name, help=help_line)
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)
    ckpt_inspect = ckpt_sub.add_parser(
        "inspect",
        help="print a checkpoint's metadata and section sizes as JSON "
        "(reads headers only; never unpickles the simulation graph)",
        parents=[engine],
    )
    ckpt_inspect.add_argument(
        "file", metavar="FILE", help="checkpoint file (*.ckpt)"
    )
    ckpt_inspect.set_defaults(func=_cmd_ckpt_inspect)
