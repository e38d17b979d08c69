"""Child-process side of the harness: one job per fresh interpreter.

``python -m bench.worker <job> ...`` runs exactly one job and prints one
JSON object as the last line of its standard output:

* ``round``  -- one untraced in-process round (build, time
  ``Network.run``, digest, checks, counters);
* ``traced`` -- one traced pass of any workload (wrappers from
  :mod:`bench.tracing`; CLI workloads run in-process through
  ``repro.cli.main(argv)`` with ``--jobs 1``);
* ``probe``  -- one isolated layer driver (event kernel, profiler
  overhead, checkpoint, argument parser, serialize/report codecs,
  trace parse/analyze, flow generation).

The parent measures this process from outside (``os.wait4``), so
nothing here reports CPU or memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

from bench import SRC, clock
from bench.digest import result_digest
from bench.workloads import (
    WORKLOADS,
    build_scenario,
    cli_commands,
    collect_cli,
    flow_counts,
    network_counts,
    scenario_checks,
    scenario_outputs,
)

#: Events the isolated kernel driver dispatches.
KERNEL_EVENTS = 500_000


def _pin_engine(engine: str) -> str:
    """Pin the engine build so a stray ``.so`` cannot change a number."""
    from repro.core import engine_select

    if engine == "compiled":
        from bench import build

        build.make_importable()
    return engine_select.activate(engine).name


# ----------------------------------------------------------------------
def job_round(args: argparse.Namespace) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload]
    engine = _pin_engine(workload.engine)
    scenario = build_scenario(
        workload.name, args.seed, workload.sized(args.smoke)
    )
    started = clock.now()
    scenario.network.run(until=scenario.until)
    wall_s = clock.now() - started
    return {
        "wall_s": wall_s,
        "engine": engine,
        "digest": result_digest(scenario_outputs(scenario)),
        "checks": scenario_checks(workload.name, scenario, args.smoke),
        "counts": {
            "sim.events": scenario.network.sim.dispatched_events,
            **network_counts([scenario.network]),
            **flow_counts(scenario.flows),
        },
    }


# ----------------------------------------------------------------------
def job_traced(args: argparse.Namespace) -> Dict[str, Any]:
    from bench.tracing import Tracer

    workload = WORKLOADS[args.workload]
    size = workload.sized(args.smoke)
    _pin_engine("pure")
    tracer = Tracer(workload.name)
    tracer.install()
    marks: Dict[str, float] = {}
    if workload.kind == "inproc":
        with tracer.spans.span("set-up"):
            scenario = build_scenario(workload.name, args.seed, size)
        scenario.network.run(until=scenario.until)
        outputs: Any = scenario_outputs(scenario)
        checks = scenario_checks(workload.name, scenario, args.smoke)
        counts: Dict[str, float] = {}
    else:
        import repro.cli

        tmp = Path(args.tmp)
        stdouts: List[str] = []
        for argv in cli_commands(workload.name, args.seed, size, 1, tmp):
            # Cache reads so far belong to earlier commands.
            marks["cache_load_before_last"] = tracer.spans.total(
                "exec.cache_load"
            )
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                with tracer.spans.span("cli.main"):
                    status = repro.cli.main(argv)
            if status != 0:
                raise SystemExit(f"repro {argv[0]} exited {status}")
            stdouts.append(captured.getvalue())
        outputs, checks, counts = collect_cli(
            workload.name, tmp, stdouts, args.smoke
        )
    counts.update(network_counts(tracer.networks))
    counts.update(flow_counts(tracer.flows))
    return {
        "digest": result_digest(outputs),
        "checks": checks,
        "counts": counts,
        "marks": marks,
        **tracer.result(),
    }


# ----------------------------------------------------------------------
def _kernel_ns(engine: str) -> float:
    """Host ns per event for self-rescheduling ``post_in`` no-ops."""
    _pin_engine(engine)
    from repro.sim import Simulator

    sim = Simulator()
    post_in = sim.post_in
    left = [KERNEL_EVENTS]

    def tick() -> None:
        left[0] -= 1
        if left[0] > 0:
            post_in(0.001, tick, None, "kernel")

    sim.post(0.0, tick, None, "kernel")
    started = clock.now()
    sim.run()
    return (clock.now() - started) / KERNEL_EVENTS * 1e9


def _probe_profile(args: argparse.Namespace) -> Dict[str, float]:
    """``Simulator(profile=True)`` against off, on ``pr_bulk``."""
    _pin_engine("pure")
    walls = {}
    for profile in (False, True):
        scenario = build_scenario(
            "pr_bulk", args.seed, WORKLOADS["pr_bulk"].sized(args.smoke), profile
        )
        started = clock.now()
        scenario.network.run(until=scenario.until)
        walls[profile] = clock.now() - started
    return {"obs.profile_overhead_ratio": walls[True] / walls[False]}


def _probe_checkpoint(args: argparse.Namespace) -> Dict[str, float]:
    """Snapshot and restore ``pr_bulk`` at its midpoint."""
    _pin_engine("pure")
    from repro.sim import Simulator

    scenario = build_scenario(
        "pr_bulk", args.seed, WORKLOADS["pr_bulk"].sized(args.smoke)
    )
    scenario.network.run(until=scenario.until / 2)
    path = Path(args.tmp) / "pr_bulk.ckpt"
    started = clock.now()
    scenario.network.sim.save_checkpoint(path)
    saved = clock.now()
    Simulator.resume(path)
    restored = clock.now()
    return {
        "checkpoint.snapshot_s": saved - started,
        "checkpoint.restore_s": restored - saved,
        "checkpoint.bytes": path.stat().st_size,
    }


def _per_call(fn: Callable[[], Any], floor_s: float = 0.05) -> float:
    """Mean seconds per call of ``fn`` over at least ``floor_s`` seconds."""
    calls = 0
    started = clock.now()
    while True:
        fn()
        calls += 1
        elapsed = clock.now() - started
        if elapsed >= floor_s:
            return elapsed / calls


def _probe_cli_parse(args: argparse.Namespace) -> Dict[str, float]:
    import repro.cli

    argv = ["fig6", "--jobs", "2", "--engine", "pure", "--seed", "1"]
    return {
        "cli.parse_s": _per_call(
            lambda: repro.cli.build_parser().parse_args(argv)
        )
    }


def _probe_experiments(args: argparse.Namespace) -> Dict[str, float]:
    """Serialize codecs and the report formatter on a ``fig6`` result."""
    from repro.experiments.fig6_multipath import Fig6Result, format_fig6
    from repro.experiments.serialize import decode_result, encode_result

    payload = json.loads(Path(args.input).read_text())
    result = Fig6Result(
        link_delay=payload["link_delay"],
        duration=payload["duration"],
        throughput_mbps={
            protocol: {float(eps): mbps for eps, mbps in row.items()}
            for protocol, row in payload["throughput_mbps"].items()
        },
    )
    return {
        "experiments.serialize_s": _per_call(
            lambda: decode_result(
                json.loads(json.dumps(encode_result(result), sort_keys=True))
            )
        ),
        "experiments.report_s": _per_call(lambda: format_fig6(result)),
    }


def _probe_traces(args: argparse.Namespace) -> Dict[str, float]:
    """Parse and analyze a trace file; scaling from a quarter of it."""
    from repro.obs import read_jsonl
    from repro.traces import TraceStream, analyze_stream

    started = clock.now()
    records = read_jsonl(args.input)
    stream = TraceStream(records)
    parsed = clock.now()
    analyze_stream(stream)
    full_s = clock.now() - parsed
    quarter = TraceStream(records[: max(2, len(records) // 4)])
    started_quarter = clock.now()
    analyze_stream(quarter)
    quarter_s = clock.now() - started_quarter
    events = len(stream.events)
    return {
        "traces.parse_s": parsed - started,
        "traces.analyze_s": full_s,
        "traces.ns_per_event": (
            (parsed - started + full_s) / events * 1e9 if events else 0.0
        ),
        "traces.scaling_exp": (
            math.log(full_s / quarter_s) / math.log(4.0)
            if quarter_s > 0 and len(quarter.events) > 0
            else 0.0
        ),
    }


def _probe_flows(args: argparse.Namespace) -> Dict[str, float]:
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.load(args.input)
    started = clock.now()
    flows = sum(1 for _ in spec.flows())
    return {
        "scenarios.generate_flows_s": clock.now() - started,
        "scenarios.flows": flows,
    }


PROBES: Dict[str, Callable[[argparse.Namespace], Dict[str, float]]] = {
    "kernel_pure": lambda args: {"sim.kernel_pure_ns": _kernel_ns("pure")},
    "kernel_compiled": lambda args: {
        "sim.kernel_compiled_ns": _kernel_ns("compiled")
    },
    "profile": _probe_profile,
    "checkpoint": _probe_checkpoint,
    "cli_parse": _probe_cli_parse,
    "experiments": _probe_experiments,
    "traces": _probe_traces,
    "flows": _probe_flows,
}


def job_probe(args: argparse.Namespace) -> Dict[str, Any]:
    return PROBES[args.name](args)


# ----------------------------------------------------------------------
def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("job", choices=["round", "traced", "probe"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--name", choices=sorted(PROBES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", default=None)
    parser.add_argument("--input", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    job = {"round": job_round, "traced": job_traced, "probe": job_probe}[
        args.job
    ]
    result = job(args)
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
