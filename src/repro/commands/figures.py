"""``fig2`` ... ``fig7`` and ``compare``: the paper's figures, each a
preset spec plus flag overrides run through :func:`_cmd_figure`.

A command imports only its own figure module, and that module's
top level is the spec, result and formatter: the simulator is imported
by the cell functions, so only cells the cache did not serve load it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List

from repro.cli import _finish
from repro.commands.sweep import (
    _failure_report,
    _runner_from,
    _write_observability,
)
from repro.exec.runner import CellError, SweepError, run_sweep
from repro.exec.spec import Scale
from repro.util.units import MS


@dataclass(frozen=True)
class _FigureCommand:
    """One figure subcommand: its module under :mod:`repro.experiments`,
    the spec class and the formatter there."""

    module: str
    spec: str
    fmt: str
    #: Maps parsed args to spec-field overrides (None values are ignored
    #: by ``presets``, so optional CLI arguments forward verbatim; list
    #: flags take one value or more, and the spec tuples them).
    overrides: Callable[[argparse.Namespace], Dict[str, Any]]


_FIGURES: Dict[str, _FigureCommand] = {
    "fig2": _FigureCommand(
        module="fig2_fairness",
        spec="Fig2Spec",
        fmt="format_fig2",
        overrides=lambda args: {
            "topology": args.topology,
            "flow_counts": args.flows,
            "duration": args.duration,
            "measure_window": args.window,
        },
    ),
    "fig3": _FigureCommand(
        module="fig3_cov",
        spec="Fig3Spec",
        fmt="format_fig3",
        overrides=lambda args: {
            "topology": args.topology,
            "bandwidths_mbps": args.bandwidths,
            "total_flows": args.flows,
            "duration": args.duration,
            "measure_window": args.window,
        },
    ),
    "fig4": _FigureCommand(
        module="fig4_params",
        spec="Fig4Spec",
        fmt="format_fig4",
        overrides=lambda args: {
            "alphas": args.alphas,
            "betas": args.betas,
            "total_flows": args.flows,
            "duration": args.duration,
            "measure_window": args.window,
        },
    ),
    "fig6": _FigureCommand(
        module="fig6_multipath",
        spec="Fig6Spec",
        fmt="format_fig6",
        overrides=lambda args: {
            "link_delay": args.delay_ms * MS,
            "protocols": args.protocols,
            "epsilons": args.epsilons,
            "duration": args.duration,
        },
    ),
    "fig7": _FigureCommand(
        module="fig7_faults",
        spec="Fig7Spec",
        fmt="format_fig7",
        overrides=lambda args: {
            "link_delay": args.delay_ms * MS,
            "protocols": args.protocols,
            "outages": args.outages,
            "period": args.period,
            "duration": args.duration,
        },
    ),
}


def _sweep_failed(headline: str, exc: SweepError) -> int:
    print(f"{headline}:", file=sys.stderr)
    for error in exc.errors:
        print(f"  {error.summary()}", file=sys.stderr)
    return 1


def _check_window(args: argparse.Namespace, spec: Any) -> None:
    """A usage error (exit 2) unless the measurement window, flag or
    preset, is shorter than the duration: no cell could succeed."""
    window = getattr(spec, "measure_window", None)
    if window is None or window < spec.duration:
        return

    def shown(value: float, flag: Any) -> str:
        return f"{value:g} s" + (", preset" if flag is None else "")

    args.usage_error(
        f"--window ({shown(window, args.window)}) must be shorter than "
        f"--duration ({shown(spec.duration, args.duration)})"
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    """The single code path every figure subcommand dispatches through."""
    command = _FIGURES[args.command]
    module = import_module(f"repro.experiments.{command.module}")
    scale = Scale.from_flag(args.paper_scale)
    spec = getattr(module, command.spec).presets(
        scale, seed=args.seed, **command.overrides(args)
    )
    _check_window(args, spec)
    runner = _runner_from(args)
    try:
        result = run_sweep(spec, runner=runner)
    except SweepError as exc:
        return _sweep_failed(f"sweep failed ({args.command})", exc)
    text = getattr(module, command.fmt)(result)
    payload: Any = result
    failures = _failure_report(runner)
    telemetries = [runner.last_stats.telemetry]

    if getattr(args, "extreme", False):
        # Only fig4 has --extreme: ``module`` is fig4_params.
        sweep_spec = module.BetaSweepSpec.presets(scale, seed=args.seed)
        try:
            points = run_sweep(sweep_spec, runner=runner)
        except SweepError as exc:
            return _sweep_failed("sweep failed (extreme beta sweep)", exc)
        text += "\n\n" + module.format_beta_sweep(points)
        payload = {"fig4": result, "extreme_beta_sweep": points}
        extra = _failure_report(runner)
        failures = "\n".join(part for part in (failures, extra) if part)
        telemetries.append(runner.last_stats.telemetry)

    if failures:
        text += "\n\n" + failures
    status = _finish(args, payload, text)
    _write_observability(args, telemetries)
    return 1 if failures else status


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import fig6_multipath
    from repro.experiments.report import bar_chart

    duration = args.duration
    if duration is None:
        duration = 30.0 if args.paper_scale else 15.0
    cells = fig6_multipath.Fig6Spec(
        link_delay=args.delay_ms * MS,
        protocols=args.variants,
        epsilons=(args.epsilon,),
        duration=duration,
        seed=args.seed,
    ).cells()
    runner = _runner_from(args)
    try:
        values = runner.run_cells(cells)
    except SweepError as exc:
        return _sweep_failed("comparison failed", exc)
    results = {
        variant: value
        for (variant, _), value in values.items()
        if not isinstance(value, CellError)
    }
    text = (
        f"Throughput over the Figure 5 mesh (eps={args.epsilon:g}, "
        f"{args.delay_ms} ms links, {duration:.0f} s):\n\n"
        + bar_chart(results, unit=" Mbps")
    )
    failures = _failure_report(runner)
    if failures:
        text += "\n\n" + failures
    payload = {
        "epsilon": args.epsilon,
        "delay_ms": args.delay_ms,
        "duration": duration,
        "throughput_mbps": results,
    }
    status = _finish(args, payload, text)
    _write_observability(args, [runner.last_stats.telemetry])
    return 1 if failures else status


def _positive(text: str) -> float:
    """``type=`` for durations: a float > 0, else an argparse error."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0 (got {text})")
    return value


def _window_flags(parser: argparse.ArgumentParser) -> None:
    """``--duration``/``--window`` of the fairness figures; the pair is
    checked against each other once presets fill what was left out."""
    parser.add_argument("--duration", type=_positive, default=None,
                        help="seconds of simulated time per cell")
    parser.add_argument("--window", type=_positive, default=None,
                        help="measurement window (final seconds)")
    parser.set_defaults(func=_cmd_figure, usage_error=parser.error)


def _fig2_flags(fig2: argparse.ArgumentParser) -> None:
    fig2.add_argument("--topology", choices=["dumbbell", "parking-lot"],
                      default="dumbbell")
    fig2.add_argument("--flows", type=int, nargs="+", default=None,
                      help="total flow counts to sweep")
    _window_flags(fig2)


def _fig3_flags(fig3: argparse.ArgumentParser) -> None:
    fig3.add_argument("--topology", choices=["dumbbell", "parking-lot"],
                      default="dumbbell")
    fig3.add_argument("--bandwidths", type=float, nargs="+", default=None,
                      help="bottleneck bandwidths (Mbps) to sweep")
    fig3.add_argument("--flows", type=int, default=None,
                      help="total number of flows")
    _window_flags(fig3)


def _fig4_flags(fig4: argparse.ArgumentParser) -> None:
    fig4.add_argument("--alphas", type=float, nargs="+", default=None,
                      help="TCP-PR alpha values to sweep")
    fig4.add_argument("--betas", type=float, nargs="+", default=None,
                      help="TCP-PR beta values to sweep")
    fig4.add_argument("--flows", type=int, default=None,
                      help="total number of flows")
    _window_flags(fig4)
    fig4.add_argument("--extreme", action="store_true",
                      help="also run the extreme-loss beta sweep")


def _fig6_flags(fig6: argparse.ArgumentParser) -> None:
    fig6.add_argument("--delay-ms", type=float, default=10.0,
                      help="per-link delay in milliseconds (paper: 10 or 60)")
    fig6.add_argument("--epsilons", type=float, nargs="+", default=None)
    fig6.add_argument("--protocols", nargs="+", default=None,
                      help="subset of protocols to run")
    fig6.add_argument("--duration", type=_positive, default=None)
    fig6.set_defaults(func=_cmd_figure)


def _fig7_flags(fig7: argparse.ArgumentParser) -> None:
    fig7.add_argument("--delay-ms", type=float, default=10.0,
                      help="per-link delay in milliseconds")
    fig7.add_argument("--outages", type=float, nargs="+", default=None,
                      help="outage durations (seconds) to sweep")
    fig7.add_argument("--protocols", nargs="+", default=None,
                      help="subset of protocols to run")
    fig7.add_argument("--period", type=_positive, default=None,
                      help="seconds between outages (default: 10)")
    fig7.add_argument("--duration", type=_positive, default=None)
    fig7.set_defaults(func=_cmd_figure)


def _compare_flags(compare: argparse.ArgumentParser) -> None:
    compare.add_argument("--variants", nargs="+", default=["tcp-pr", "sack"])
    compare.add_argument("--epsilon", type=float, default=0.0)
    compare.add_argument("--delay-ms", type=float, default=10.0)
    compare.add_argument("--duration", type=_positive, default=None)
    compare.set_defaults(func=_cmd_compare)


_FLAGS: Dict[str, Callable[[argparse.ArgumentParser], None]] = {
    "fig2": _fig2_flags,
    "fig3": _fig3_flags,
    "fig4": _fig4_flags,
    "fig6": _fig6_flags,
    "fig7": _fig7_flags,
    "compare": _compare_flags,
}


def add_parser(sub: Any, name: str, help_line: str, common: List[Any]) -> None:
    _FLAGS[name](sub.add_parser(name, help=help_line, parents=common))
