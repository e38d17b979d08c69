"""Command line of the benchmark (run from the repository root).

Driver protocol, one workload per invocation, one JSON object as the
last line of standard output::

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

Whole-benchmark commands::

    python3 -m bench run   [--seed 11] [--rounds 5]   all workloads, one record
    python3 -m bench trace [--seed 11]                the traced pass
    python3 -m bench noise [--seed 11] [--rounds 5]   two sets against the bounds
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import OUT, ROOT, SRC, build
from bench.measure import (
    METHOD,
    Round,
    Session,
    summarize_workload,
    trace_workload,
)
from bench.metrics import END_TO_END, PER_LAYER_UNITS
from bench.tracing import layer_budget
from bench.workloads import WORKLOADS


def contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    """The commit under test; a driver checkout is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return "nogit"
    return proc.stdout.strip() if proc.returncode == 0 else "nogit"


def host_fingerprint() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "python": sys.version,
    }


def write_out(name: str, payload: Dict[str, Any]) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def print_metrics(title: str, values: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(f"== {title}")
    for name, entry in values.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")


def layer_values(metrics: Dict[str, float]) -> Dict[str, Any]:
    return {
        name: {"value": value, "unit": PER_LAYER_UNITS[name]}
        for name, value in metrics.items()
    }


# ----------------------------------------------------------------------
# Driver protocol
# ----------------------------------------------------------------------
def drive(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    with Session(args.seed, smoke=args.smoke) as session:
        problem = session.prepare(workload)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 1
        if args.trace:
            traced = trace_workload(session, workload)
            save_trace(workload.name, traced)
            checks = list(traced["checks"].values())
            attempted = len(checks)
            failed = sum(1 for ok in checks if not ok)
            metrics = layer_values(traced["metrics"])
        else:
            warm = session.cli_warm()
            if workload.engine == "compiled":
                session.pure_reference()
            rounds: List[Round] = []
            measured = 0.0
            while measured < args.seconds:
                rounds.append(session.round(workload))
                measured += rounds[-1].total_s
            summary = summarize_workload(rounds, warm)
            for broken in (r for r in rounds if r.error):
                print(f"round failed: {broken.error}", file=sys.stderr)
            if len(summary["metrics"]) < len(END_TO_END):
                print("error: no round completed", file=sys.stderr)
                return 1
            attempted, failed = summary["attempted"], summary["failed"]
            metrics = {
                name: {"value": entry["median"], "unit": entry["unit"]}
                for name, entry in summary["metrics"].items()
            }
    print_metrics(f"{workload.name} seed={args.seed}", metrics)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def save_trace(workload: str, traced: Dict[str, Any]) -> Path:
    """Merge one workload's traced pass into ``trace-<sha>.json``."""
    path = OUT / f"trace-{git_sha()}.json"
    merged: Dict[str, Any] = {"schema": "bench-trace/v1", "workloads": {}}
    if path.exists():
        merged = json.loads(path.read_text())
    merged["workloads"][workload] = traced
    return write_out(path.name, merged)


# ----------------------------------------------------------------------
# Whole-benchmark commands
# ----------------------------------------------------------------------
def run_set(seed: int, rounds: int, smoke: bool) -> Dict[str, Any]:
    """All workloads, rounds interleaved round-robin so host drift
    spreads evenly; returns one result record."""
    compiled = build.ensure_built()
    with Session(seed, smoke=smoke) as session:
        warm = session.cli_warm()
        taken: Dict[str, List[Round]] = {name: [] for name in WORKLOADS}
        for index in range(rounds):
            for workload in WORKLOADS.values():
                taken[workload.name].append(session.round(workload))
                print(
                    f"round {index + 1}/{rounds} {workload.name}: "
                    f"{taken[workload.name][-1].samples.get('wall_s', float('nan')):.3f} s",
                    file=sys.stderr,
                )
    return {
        "schema": "bench/v1",
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "engine_build": {
            "pure": True,
            "compiled": compiled["extension"] if compiled["ok"] else None,
            "compiled_build_s": compiled["build_s"],
            "compiled_error": compiled["error"],
        },
        "seed": seed,
        "rounds": rounds,
        "smoke": smoke,
        "method": METHOD,
        "workloads": {
            name: summarize_workload(taken[name], warm) for name in WORKLOADS
        },
    }


def fail_ratio(record: Dict[str, Any]) -> float:
    attempted = sum(w["attempted"] for w in record["workloads"].values())
    failed = sum(w["failed"] for w in record["workloads"].values())
    return failed / attempted if attempted else 1.0


def print_record(record: Dict[str, Any]) -> None:
    for name, summary in record["workloads"].items():
        print(f"== {name}  digest {summary['digest'][:16]}")
        for metric, entry in summary["metrics"].items():
            print(
                f"  {metric:16s} median {entry['median']:>10.4f} {entry['unit']:4s}"
                f" q1 {entry['q1']:.4f} q3 {entry['q3']:.4f} n {entry['n']}"
            )
        print(f"  {'fail_ratio':16s} {summary['failed']}/{summary['attempted']}")
    print(f"fail_ratio {fail_ratio(record):.6f} failed/attempted")


def cmd_run(args: argparse.Namespace) -> int:
    record = run_set(args.seed, args.rounds, args.smoke)
    print_record(record)
    path = write_out(f"run-{record['git_sha']}-seed{args.seed}.json", record)
    print(f"[record written to {path}]")
    return 0 if fail_ratio(record) == 0 else 1


def cmd_trace(args: argparse.Namespace) -> int:
    failed = 0
    with Session(args.seed, smoke=args.smoke) as session:
        for workload in WORKLOADS.values():
            problem = session.prepare(workload)
            if problem is not None:
                print(f"error: {problem}", file=sys.stderr)
                return 1
            traced = trace_workload(session, workload)
            path = save_trace(workload.name, traced)
            metrics = traced["metrics"]
            print_metrics(
                workload.name,
                layer_values({n: v for n, v in metrics.items() if v}),
            )
            budget = layer_budget(traced["trace"])
            print(
                f"  layer budget: parts sum to {sum(budget.values()):.4f} s of "
                f"run wall {metrics['trace.run_wall_s']:.4f} s: "
                + ", ".join(
                    f"{layer} {self_s:.3f}"
                    for layer, self_s in budget.items()
                    if self_s
                )
            )
            failed += sum(1 for ok in traced["checks"].values() if not ok)
    print(f"[trace written to {path}]")
    return 0 if failed == 0 else 1


def cmd_noise(args: argparse.Namespace) -> int:
    """Two full sets, same seed, back to back, against the bounds."""
    bounds = {m["name"]: m["bound"] for m in contract()["end_to_end"]}
    first = run_set(args.seed, args.rounds, args.smoke)
    second = run_set(args.seed, args.rounds, args.smoke)
    rows = []
    exceeded = 0
    for name in WORKLOADS:
        for metric, bound in bounds.items():
            a = first["workloads"][name]["metrics"][metric]["median"]
            b = second["workloads"][name]["metrics"][metric]["median"]
            diff = abs(b - a) / a
            over = diff > bound
            exceeded += over
            rows.append(
                {"workload": name, "metric": metric, "first": a, "second": b,
                 "rel_diff": diff, "bound": bound, "exceeded": over}
            )
            print(
                f"{name:16s} {metric:14s} {a:>10.4f} {b:>10.4f} "
                f"diff {diff:7.2%} bound {bound:4.0%}{'  EXCEEDED' if over else ''}"
            )
    ratios = [fail_ratio(first), fail_ratio(second)]
    print(f"fail_ratio {ratios[0]:.6f} {ratios[1]:.6f}")
    path = write_out(
        f"noise-{first['git_sha']}.json",
        {"schema": "bench-noise/v1", "seed": args.seed, "rows": rows,
         "fail_ratio": ratios, "first": first, "second": second},
    )
    print(f"[noise record written to {path}]")
    return 0 if exceeded == 0 and ratios == [0.0, 0.0] else 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run measures (driver protocol)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20: a plumbing check, not a measurement")
    sub = parser.add_subparsers(dest="command")
    for name, func in (("run", cmd_run), ("trace", cmd_trace), ("noise", cmd_noise)):
        command = sub.add_parser(name)
        command.add_argument("--seed", type=int, default=11)
        command.add_argument("--rounds", type=int, default=5)
        command.add_argument("--smoke", action="store_true")
        command.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: no package under test at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.command is not None:
        return int(args.func(args))
    if args.workload is None:
        build_parser().error("give --workload NAME or one of run/trace/noise")
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())
