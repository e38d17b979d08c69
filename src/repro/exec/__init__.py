"""Sweep execution subsystem: declarative specs, parallel fan-out, caching.

Every paper figure is a grid of mutually independent simulations.  This
package turns that observation into infrastructure:

* :mod:`repro.exec.spec` — :class:`Scale` presets, :class:`SweepCell`,
  the :class:`ExperimentSpec` base class each figure subclasses, and
  :class:`PartialSweepResult` for sweeps that lost cells to failures;
* :mod:`repro.exec.runner` — :class:`ParallelRunner` / :func:`run_sweep`,
  fanning cells over a ``multiprocessing`` pool with bit-identical
  serial/parallel results and a graceful failure policy
  (:class:`CellError` capture, per-cell ``timeout``, ``retries`` with
  re-derived seeds, ``keep_going`` partial assembly);
* :mod:`repro.exec.cache` — :class:`ResultCache`, a content-addressed
  on-disk store under ``.repro-cache/`` making repeat runs near-instant:
  the runner reads the cache first and resolves (imports) the cell
  functions of the misses only, so a fully cached sweep loads no
  simulator code.  Each result is stored as its cell completes, which
  makes the cache the crash-recovery path too: a killed sweep run again
  on the same cache re-runs only the cells that had not finished;
* :mod:`repro.exec.telemetry` — :class:`CellTelemetry` /
  :class:`SweepTelemetry`, the per-cell execution stories (cache hits,
  retries, timeouts, wall time, metric summaries) every run attaches to
  :attr:`RunStats.telemetry`.

See ``docs/EXECUTOR.md`` for the design, ``docs/FAULTS.md`` for the
failure policy, and ``docs/OBSERVABILITY.md`` for metric collection.
The names below are re-exported lazily: ``import repro.exec`` loads no
submodule, and the runner imports :mod:`repro.obs` only when a sweep
collects metrics or traces.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.exec.cache import (
        CACHE_SCHEMA_VERSION,
        DEFAULT_CACHE_DIR,
        CacheStats,
        ResultCache,
    )
    from repro.exec.runner import (
        CellError,
        CellTimeout,
        ParallelRunner,
        RunStats,
        SweepError,
        run_sweep,
    )
    from repro.exec.spec import (
        ExperimentSpec,
        PartialSweepResult,
        Scale,
        SweepCell,
        resolve_func,
    )
    from repro.exec.telemetry import CellTelemetry, SweepTelemetry

#: Public name -> the module that defines it, imported on first access
#: (PEP 562): ``import repro.exec`` loads no submodule.
_EXPORTS = {
    "CACHE_SCHEMA_VERSION": "repro.exec.cache",
    "CacheStats": "repro.exec.cache",
    "CellError": "repro.exec.runner",
    "CellTelemetry": "repro.exec.telemetry",
    "CellTimeout": "repro.exec.runner",
    "DEFAULT_CACHE_DIR": "repro.exec.cache",
    "ExperimentSpec": "repro.exec.spec",
    "ParallelRunner": "repro.exec.runner",
    "PartialSweepResult": "repro.exec.spec",
    "ResultCache": "repro.exec.cache",
    "RunStats": "repro.exec.runner",
    "Scale": "repro.exec.spec",
    "SweepCell": "repro.exec.spec",
    "SweepError": "repro.exec.runner",
    "SweepTelemetry": "repro.exec.telemetry",
    "resolve_func": "repro.exec.spec",
    "run_sweep": "repro.exec.runner",
}

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "CellError",
    "CellTelemetry",
    "CellTimeout",
    "ExperimentSpec",
    "ParallelRunner",
    "PartialSweepResult",
    "ResultCache",
    "RunStats",
    "Scale",
    "SweepCell",
    "SweepError",
    "SweepTelemetry",
    "resolve_func",
    "run_sweep",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
