"""``fig2`` ... ``fig7`` and ``compare``: the paper's figures, each a
preset spec plus flag overrides run through :func:`_cmd_figure`."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.cli import _finish
from repro.commands.sweep import (
    _failure_report,
    _runner_from,
    _write_observability,
)
from repro.exec import CellError, Scale, SweepError, run_sweep
from repro.experiments import (
    fig2_fairness,
    fig3_cov,
    fig4_params,
    fig6_multipath,
    fig7_faults,
)
from repro.experiments.report import bar_chart
from repro.util.units import MS


@dataclass(frozen=True)
class _FigureCommand:
    """One figure subcommand: spec class + formatter."""

    spec_cls: type
    fmt: Callable[[Any], str]
    #: Maps parsed args to spec-field overrides (None values are ignored
    #: by ``presets``, so optional CLI arguments forward verbatim; list
    #: flags take one value or more, and the spec tuples them).
    overrides: Callable[[argparse.Namespace], Dict[str, Any]]


_FIGURES: Dict[str, _FigureCommand] = {
    "fig2": _FigureCommand(
        spec_cls=fig2_fairness.Fig2Spec,
        fmt=fig2_fairness.format_fig2,
        overrides=lambda args: {
            "topology": args.topology,
            "flow_counts": args.flows,
            "duration": args.duration,
            "measure_window": args.window,
        },
    ),
    "fig3": _FigureCommand(
        spec_cls=fig3_cov.Fig3Spec,
        fmt=fig3_cov.format_fig3,
        overrides=lambda args: {
            "topology": args.topology,
            "bandwidths_mbps": args.bandwidths,
            "total_flows": args.flows,
            "duration": args.duration,
            "measure_window": args.window,
        },
    ),
    "fig4": _FigureCommand(
        spec_cls=fig4_params.Fig4Spec,
        fmt=fig4_params.format_fig4,
        overrides=lambda args: {
            "alphas": args.alphas,
            "betas": args.betas,
            "total_flows": args.flows,
            "duration": args.duration,
            "measure_window": args.window,
        },
    ),
    "fig6": _FigureCommand(
        spec_cls=fig6_multipath.Fig6Spec,
        fmt=fig6_multipath.format_fig6,
        overrides=lambda args: {
            "link_delay": args.delay_ms * MS,
            "protocols": args.protocols,
            "epsilons": args.epsilons,
            "duration": args.duration,
        },
    ),
    "fig7": _FigureCommand(
        spec_cls=fig7_faults.Fig7Spec,
        fmt=fig7_faults.format_fig7,
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


def _cmd_figure(args: argparse.Namespace) -> int:
    """The single code path every figure subcommand dispatches through."""
    command = _FIGURES[args.command]
    spec = command.spec_cls.presets(
        Scale.from_flag(args.paper_scale),
        seed=args.seed,
        **command.overrides(args),
    )
    runner = _runner_from(args)
    try:
        result = run_sweep(spec, runner=runner)
    except SweepError as exc:
        return _sweep_failed(f"sweep failed ({args.command})", exc)
    text = command.fmt(result)
    payload: Any = result
    failures = _failure_report(runner)
    telemetries = [runner.last_stats.telemetry]

    if getattr(args, "extreme", False):
        sweep_spec = fig4_params.BetaSweepSpec.presets(
            Scale.from_flag(args.paper_scale), seed=args.seed
        )
        try:
            points = run_sweep(sweep_spec, runner=runner)
        except SweepError as exc:
            return _sweep_failed("sweep failed (extreme beta sweep)", exc)
        text += "\n\n" + fig4_params.format_beta_sweep(points)
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


def _fig2_flags(fig2: argparse.ArgumentParser) -> None:
    fig2.add_argument("--topology", choices=["dumbbell", "parking-lot"],
                      default="dumbbell")
    fig2.add_argument("--flows", type=int, nargs="+", default=None,
                      help="total flow counts to sweep")
    fig2.add_argument("--duration", type=_positive, default=None,
                      help="seconds of simulated time per cell")
    fig2.add_argument("--window", type=_positive, default=None,
                      help="measurement window (final seconds)")
    fig2.set_defaults(func=_cmd_figure)


def _fig3_flags(fig3: argparse.ArgumentParser) -> None:
    fig3.add_argument("--topology", choices=["dumbbell", "parking-lot"],
                      default="dumbbell")
    fig3.add_argument("--bandwidths", type=float, nargs="+", default=None,
                      help="bottleneck bandwidths (Mbps) to sweep")
    fig3.add_argument("--flows", type=int, default=None,
                      help="total number of flows")
    fig3.add_argument("--duration", type=_positive, default=None)
    fig3.add_argument("--window", type=_positive, default=None)
    fig3.set_defaults(func=_cmd_figure)


def _fig4_flags(fig4: argparse.ArgumentParser) -> None:
    fig4.add_argument("--alphas", type=float, nargs="+", default=None,
                      help="TCP-PR alpha values to sweep")
    fig4.add_argument("--betas", type=float, nargs="+", default=None,
                      help="TCP-PR beta values to sweep")
    fig4.add_argument("--flows", type=int, default=None,
                      help="total number of flows")
    fig4.add_argument("--duration", type=_positive, default=None)
    fig4.add_argument("--window", type=_positive, default=None)
    fig4.add_argument("--extreme", action="store_true",
                      help="also run the extreme-loss beta sweep")
    fig4.set_defaults(func=_cmd_figure)


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
