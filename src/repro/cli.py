"""Command-line interface: regenerate the paper's figures from a shell.

Installed as ``repro-experiments`` (also ``python -m repro``)::

    repro-experiments variants
    repro-experiments fig2 --topology dumbbell --flows 4 8
    repro-experiments fig3 --topology parking-lot
    repro-experiments fig4 --jobs 8
    repro-experiments fig6 --delay-ms 10 --epsilons 0 4 500
    repro-experiments fig7 --outages 0 1 2 --keep-going
    repro-experiments compare --scenario multipath --variants tcp-pr sack

Every subcommand prints the same rows/series the paper's figure shows
and shares one execution path: a :class:`~repro.exec.spec.Scale` preset
spec (``--paper-scale`` selects the full configuration), fanned out over
``--jobs`` worker processes, with results cached on disk under
``--cache-dir`` (default ``.repro-cache/``; disable with ``--no-cache``)
so repeat invocations are near-instant.  ``--json PATH`` additionally
dumps the result for external plotting tools.

Sweeps are crash-isolated: ``--keep-going`` finishes the surviving cells
and reports a partial figure when some fail, ``--cell-timeout`` bounds
each cell's wall clock, and ``--retries``/``--retry-backoff`` re-attempt
failed cells with re-derived seeds (see ``docs/FAULTS.md``).  Each
finished cell is cached at once, so a killed sweep is recovered by
running it again on the same cache: only the unfinished cells run.

Observability: ``--metrics-out PATH`` streams per-flow metric
timeseries plus per-cell and sweep telemetry as ``repro.obs/v1`` JSONL;
``--trace-out PATH`` does the same for packet/fault trace events; and
``repro-experiments obs summary|convert FILE`` inspects or converts an
existing stream (see ``docs/OBSERVABILITY.md``).

The trace pipeline (``docs/TRACES.md``): ``repro-experiments trace
analyze FILE`` computes pcap-style reordering analytics from a
``--trace-out`` stream, ``trace replay FILE`` distills it into a
:class:`~repro.traces.ReorderProfile` and re-runs it as a simulator
scenario, and ``trace convert CAPTURE.csv`` imports an external
capture into the same schema.

This module is the command table, the shared flag groups and the shared
output tail (:func:`_finish`, :func:`write_jsonl`) only.  Each entry
of :data:`COMMANDS` names the :mod:`repro.commands` module holding that
command's argparse definitions, ``_cmd_*`` handlers and heavy imports;
:func:`main` imports just the module of the command that is the first
token on argv (so ``variants`` starts without the executor, the
experiments or the linter), and :func:`build_parser` with no argument
imports them all and returns the complete parser.

Flag groups are defined once as argparse *parent parsers*
(:func:`_execution_parent`: scale/seed/jobs/cache/failure-policy;
:func:`_obs_parent`: ``--json``/``--metrics-out``/``--trace-out``;
:func:`_engine_parent`: ``--engine``) and handed to every command
module's ``add_parser``, so new subcommands get the full flag surface
by construction.

Engine selection (``docs/COMPILED.md``): every subcommand accepts
``--engine auto|pure|compiled`` to pick the hot-core build; the choice
is activated before dispatch and exported to worker processes.
``repro-experiments bench report`` merges the committed
``benchmarks/results/BENCH_*.json`` files into one trajectory table.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import Any, Iterable, List, Optional, Tuple

#: ``repro.exec.DEFAULT_CACHE_DIR``, spelled out because ``--cache-dir``
#: is defined for every command and must not import the executor to
#: print ``variants`` (``tests/test_cli.py`` holds the two equal).
DEFAULT_CACHE_DIR = ".repro-cache"

#: ``(name, help line, module under repro.commands)`` in help order.
#: A module exposes ``add_parser(sub, name, help_line, common)``, which
#: adds the command to the subparsers action ``sub``; ``common`` is the
#: list of shared parent parsers (execution, observability, engine --
#: the engine selector alone is ``common[-1]``).
COMMANDS: Tuple[Tuple[str, str, str], ...] = (
    ("variants", "list available TCP variants", "variants"),
    ("fig2", "Figure 2: fairness vs TCP-SACK", "figures"),
    ("fig3", "Figure 3: CoV vs loss rate", "figures"),
    ("fig4", "Figure 4: alpha/beta sensitivity", "figures"),
    ("fig6", "Figure 6: multipath throughput", "figures"),
    ("fig7", "Figure 7: goodput under scheduled outages/blackouts", "figures"),
    ("scale", "run a declarative scenario sharded across the worker pool",
     "scale"),
    ("lint", "run the project's determinism/hot-path/hygiene lint rules",
     "lint"),
    ("obs", "inspect or convert a repro.obs/v1 record stream", "obs"),
    ("bench", "inspect committed benchmark results", "bench"),
    ("compare", "compare chosen variants in one multipath scenario", "figures"),
    ("trace", "analyze, replay, or import packet trace streams", "trace"),
)


def _execution_parent() -> argparse.ArgumentParser:
    """Parent parser: the execution flag group, defined exactly once.

    Scale/seed selection, worker fan-out, the on-disk result cache, and
    the failure policy (keep-going/fail-fast, per-cell timeouts,
    retries).  Every subcommand that runs simulations inherits this via
    ``parents=[...]``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full paper-scale configuration (slow)",
    )
    parent.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parent.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent sweep cells (default: 1)",
    )
    parent.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    parent.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR}); each "
        "cell is stored as it finishes, so re-running a killed sweep on "
        "the same directory runs only the cells that had not finished",
    )
    failure = parent.add_mutually_exclusive_group()
    failure.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        help="on cell failure, finish the remaining cells and report a "
        "partial result (failed cells are listed; exit status stays 0 "
        "only if everything succeeded)",
    )
    failure.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="abort the sweep on the first cell failure (default)",
    )
    parent.set_defaults(keep_going=False)
    parent.add_argument(
        "--cell-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock budget per sweep cell; overruns count as failures",
    )
    parent.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-attempts per failed cell, each with a re-derived seed "
        "(default: 0)",
    )
    parent.add_argument(
        "--retry-backoff",
        type=float,
        metavar="SECONDS",
        default=0.25,
        help="base delay between attempts, doubled each retry (default: 0.25)",
    )
    return parent


def _obs_parent() -> argparse.ArgumentParser:
    """Parent parser: the observability flag group, defined exactly once.

    JSON result dumps and the ``repro.obs/v1`` metric/trace stream
    outputs.  Inherited alongside :func:`_execution_parent`.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also dump the result as JSON to PATH",
    )
    parent.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="collect per-flow metric timeseries inside each cell and "
        "write them, with per-cell and sweep telemetry, as "
        "repro.obs/v1 JSONL",
    )
    parent.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="collect packet send/arrival/drop and fault trace events "
        "inside each cell and write them as repro.obs/v1 JSONL "
        "(analyze with `trace analyze`)",
    )
    return parent


def _engine_parent() -> argparse.ArgumentParser:
    """Parent parser: the engine-build selector, defined exactly once.

    ``--engine`` picks the hot-core build (see docs/COMPILED.md):
    ``auto`` (default) uses the compiled extension when built and falls
    back to pure python silently; ``compiled`` demands it (actionable
    error when missing); ``pure`` never touches it.  Activation happens
    in :func:`main` before dispatch and exports ``REPRO_ENGINE`` so
    ``--jobs`` worker processes inherit the choice.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--engine",
        choices=["auto", "pure", "compiled"],
        default=None,
        help="hot-core build: auto (compiled when built, else pure), "
        "pure, or compiled (error if the extension is missing); "
        "default: the REPRO_ENGINE env var, else auto",
    )
    return parent


def write_jsonl(
    records: Iterable[Any], path: "str | Path", **header_fields: Any
) -> Path:
    """The ``--metrics-out``/``--trace-out`` export of every command.

    Command modules call it as ``cli.write_jsonl`` so that a wrapper
    installed on this module (the benchmark's ``obs.export`` span) sees
    every export; :mod:`repro.obs` is imported on the first call.
    """
    from repro.obs import write_jsonl as export

    return export(records, path, **header_fields)


def _finish(args: argparse.Namespace, result: Any, text: str) -> int:
    """Shared tail of every subcommand: print, optionally dump JSON."""
    print(text)
    if args.json:
        from repro.experiments.serialize import dump_result

        path = dump_result(result, args.json)
        print(f"[json written to {path}]")
    return 0


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The complete parser, or one with only ``command`` materialised.

    The other commands are then bare entries (all of them, when
    ``command`` is not a command at all), enough for the usage line,
    ``--help`` and the ``invalid choice`` message to name every one.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the TCP-PR paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The shared flag groups.  argparse copies parent actions into each
    # child, so one definition site serves every subcommand.
    common = [_execution_parent(), _obs_parent(), _engine_parent()]
    for name, help_line, module in COMMANDS:
        if command in (None, name):
            group = import_module(f"repro.commands.{module}")
            group.add_parser(sub, name, help_line, common)
        else:
            sub.add_parser(name, help=help_line)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the command named first on argv pays for its imports.
    parser = build_parser(*argv[:1])
    args = parser.parse_args(argv)
    if getattr(args, "engine", None) is not None:
        from repro.core import engine_select

        try:
            engine_select.activate(args.engine)
        except engine_select.EngineUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; exit
        # quietly like any well-behaved filter.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
