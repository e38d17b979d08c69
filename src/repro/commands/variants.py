"""``variants``: list the registered TCP variants."""

from __future__ import annotations

import argparse
from typing import Any, List

from repro.cli import _finish
from repro.tcp.registry import available_variants


def _cmd_variants(args: argparse.Namespace) -> int:
    names = list(available_variants())
    lines = ["Available TCP variants:"] + [f"  {name}" for name in names]
    return _finish(args, {"variants": names}, "\n".join(lines))


def add_parser(sub: Any, name: str, help_line: str, common: List[Any]) -> None:
    variants = sub.add_parser(name, help=help_line, parents=common)
    variants.set_defaults(func=_cmd_variants)
