"""``lint``: the project's determinism/hot-path/hygiene rules."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, List


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the project lint pass (see :mod:`repro.lint`).

    Exit codes: 0 clean, 1 findings, 2 internal analyzer error — CI can
    tell "the tree is dirty" from "the linter itself broke".
    """
    import json as _json

    from repro.lint import DEEP_RULES, RULES, run_analysis, to_sarif
    from repro.lint.deep import DEFAULT_CACHE_DIR

    if args.list_rules:
        catalog = [(r.code, r.slug, r.summary) for r in RULES]
        catalog.extend((r.code, r.slug, r.summary) for r in DEEP_RULES)
        width = max(len(slug) for _code, slug, _summary in catalog)
        for code, slug, summary in catalog:
            print(f"{code}  {slug:<{width}}  {summary}")
        return 0
    select = [
        prefix
        for chunk in (args.select or [])
        for prefix in chunk.split(",")
        if prefix.strip()
    ]
    result = run_analysis(
        args.paths,
        deep=args.deep,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
        jobs=args.jobs,
        select=select or None,
    )
    findings = result.findings
    fmt = "json" if args.lint_json else args.lint_format
    if fmt == "json":
        text = _json.dumps([finding.to_record() for finding in findings])
    elif fmt == "sarif":
        text = _json.dumps(to_sarif(findings), indent=2, sort_keys=True)
    else:
        lines = [finding.format() for finding in findings]
        noun = "finding" if len(findings) == 1 else "findings"
        lines.append(f"{len(findings)} {noun}")
        text = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"[lint report written to {args.output}]")
    else:
        print(text)
    if args.stats:
        print(
            "lint-stats: " + _json.dumps(result.stats.to_record()),
            file=sys.stderr,
        )
    for error in result.errors:
        print(f"lint internal error: {error}", file=sys.stderr)
    if result.errors:
        return 2
    return 1 if findings else 0


def add_parser(sub: Any, name: str, help_line: str, common: List[Any]) -> None:
    lint = sub.add_parser(name, help=help_line, parents=common[-1:])
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program passes (interprocedural "
        "determinism taint REP11x, cross-artifact drift REP4xx)",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel parse workers (default: min(cpu, 8); 1 = serial)",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the incremental analysis cache",
    )
    lint.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="analysis cache location (default: .repro-cache/lint)",
    )
    lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="PREFIX[,PREFIX...]",
        help="only report findings whose code matches a prefix "
        "(e.g. --select REP1 for the determinism family)",
    )
    lint.add_argument(
        "--format",
        dest="lint_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--json",
        dest="lint_json",
        action="store_true",
        help="alias for --format json",
    )
    lint.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="print cache hit/miss statistics to stderr",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (shallow + deep) and exit",
    )
    lint.set_defaults(func=_cmd_lint)
