"""``bench report``: tabulate the committed ``BENCH_*.json`` results."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List


def _flatten_bench(value: Any, prefix: str = "") -> List[tuple]:
    """Flatten one BENCH_*.json payload into ``(dotted.path, scalar)`` rows.

    The committed benchmark files are heterogeneous (each subsystem
    records its own headline numbers), so the report is schema-agnostic:
    every numeric or string leaf becomes a row.  Lists of dicts — the
    common ``points: [{"mode": ..., ...}]`` idiom — are keyed by their
    ``mode`` (or ``segments``) field when present, else by index.
    """
    rows: List[tuple] = []
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(_flatten_bench(item, path))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            label = str(index)
            if isinstance(item, dict):
                tag = item.get("mode", item.get("segments"))
                if tag is not None:
                    label = str(tag)
            rows.extend(_flatten_bench(item, f"{prefix}[{label}]"))
    elif isinstance(value, bool) or value is None:
        pass  # flags and nulls carry no trajectory signal
    elif isinstance(value, (int, float, str)):
        rows.append((prefix, value))
    return rows


def _format_bench_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    text = str(value)
    if len(text) > 72:  # free-text provenance notes; --json keeps them whole
        return text[:69] + "..."
    return text


def _cmd_bench_report(args: argparse.Namespace) -> int:
    """Merge ``benchmarks/results/BENCH_*.json`` into one trajectory table."""
    results_dir = Path(args.dir)
    files = sorted(results_dir.glob("BENCH_*.json"))
    if not files:
        where = results_dir if results_dir.is_dir() else f"{results_dir} (no such directory)"
        print(
            f"no BENCH_*.json found under {where}; run the tier-2 "
            "benchmarks (pytest -m 'bench_smoke or bench_scale') or pass "
            "--dir pointing at committed results",
            file=sys.stderr,
        )
        return 1
    report: Dict[str, Dict[str, Any]] = {}
    for path in files:
        name = path.stem[len("BENCH_"):]
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        report[name] = dict(_flatten_bench(data))
    if args.bench_json:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        rows = [
            (bench, metric, _format_bench_value(value))
            for bench, metrics in report.items()
            for metric, value in metrics.items()
        ]
        if not rows:
            names = ", ".join(path.name for path in files)
            print(
                f"no reportable metrics in {names}; the files parsed but "
                "hold no numeric or string leaves",
                file=sys.stderr,
            )
            return 1
        widths = [
            max(len(header), *(len(row[col]) for row in rows))
            for col, header in enumerate(("benchmark", "metric", "value"))
        ]
        lines = [
            "| {} | {} | {} |".format(
                "benchmark".ljust(widths[0]),
                "metric".ljust(widths[1]),
                "value".ljust(widths[2]),
            ),
            "| {} | {} | {} |".format(*("-" * w for w in widths)),
        ]
        lines.extend(
            "| {} | {} | {} |".format(
                bench.ljust(widths[0]), metric.ljust(widths[1]),
                value.ljust(widths[2]),
            )
            for bench, metric, value in rows
        )
        text = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"[report written to {args.output}]")
    else:
        print(text)
    return 0


def add_parser(sub: Any, name: str, help_line: str, common: List[Any]) -> None:
    engine = common[-1]
    bench = sub.add_parser(name, help=help_line)
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_report = bench_sub.add_parser(
        "report",
        help="merge benchmarks/results/BENCH_*.json into one trajectory "
        "table (markdown by default)",
        parents=[engine],
    )
    bench_report.add_argument(
        "--dir",
        default="benchmarks/results",
        metavar="PATH",
        help="directory holding BENCH_*.json (default: benchmarks/results)",
    )
    bench_report.add_argument(
        "--json",
        dest="bench_json",
        action="store_true",
        help="emit the merged report as JSON instead of markdown",
    )
    bench_report.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report to PATH instead of stdout",
    )
    bench_report.set_defaults(func=_cmd_bench_report)
