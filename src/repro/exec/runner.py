"""Sweep execution: fan independent cells out over a process pool.

:class:`ParallelRunner` takes the cells of an
:class:`~repro.exec.spec.ExperimentSpec`, serves what it can from a
:class:`~repro.exec.cache.ResultCache`, executes the misses — serially
or over a ``multiprocessing`` pool — and hands ``{key: result}`` back to
the spec's ``assemble``.  Because each cell carries its own derived
seed and builds its own simulator, execution order and process placement
cannot influence the numbers: ``jobs=1`` and ``jobs=N`` are
bit-identical.

Failure policy (a sweep farm must degrade, not die):

* every cell runs inside a guard that captures exceptions as data — a
  crashing cell produces a :class:`CellError`, never an aborted grid;
* ``timeout`` puts a per-cell wall-clock ceiling on execution (enforced
  with ``SIGALRM`` inside the worker, so a runaway simulation cannot
  hang the sweep);
* ``retries`` re-runs a failed cell with exponential backoff, each
  attempt under a freshly derived seed (``derive_child_seed(seed,
  "attempt/k")``), so a pathological RNG draw doesn't doom the cell;
* with ``keep_going=True`` the failed cells are reported in
  :attr:`RunStats.errors` and handed to the spec's ``assemble_partial``;
  the default ``keep_going=False`` raises :class:`SweepError` *after*
  draining (and caching) every in-flight cell, so completed work is
  never discarded either way;
* results are cached as each cell completes, not at the end of the
  sweep — a late crash cannot discard earlier cells' work.  This is the
  one crash-recovery path: a killed sweep run again on the same cache
  re-runs only the cells that had not finished, each from scratch.

:func:`run_sweep` is the one-call convenience used by every
figure command::

    from repro.experiments import Fig4Spec, Scale, run_sweep

    spec = Fig4Spec.presets(Scale.PAPER, seed=7)
    result = run_sweep(spec, jobs=8, cache=ResultCache(), keep_going=True)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exec.cache import ResultCache
from repro.exec.spec import ExperimentSpec, SweepCell, resolve_func
from repro.exec.telemetry import (
    CellTelemetry,
    SweepTelemetry,
    summaries_from_records,
)
from repro.sim.rng import derive_child_seed

if TYPE_CHECKING:
    import multiprocessing.context

    from repro.obs.trace import TraceEvent


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its wall-clock budget."""


@dataclass(frozen=True)
class CellError:
    """One cell's terminal failure, captured as plain (picklable) data.

    Appears as the cell's value in keep-going results and in
    :attr:`RunStats.errors`; never stored in the result cache, so a
    healed code path re-runs the cell on the next invocation.
    """

    key: Any
    func: str
    error: str  # exception class name ("ValueError", "CellTimeout", ...)
    message: str
    traceback: str
    attempts: int
    timed_out: bool

    def summary(self) -> str:
        note = " (timed out)" if self.timed_out else ""
        return (
            f"{self.key!r}: {self.error}: {self.message}{note} "
            f"[{self.attempts} attempt{'s' if self.attempts != 1 else ''}]"
        )


class SweepError(RuntimeError):
    """Raised in fail-fast mode when one or more cells fail.

    ``errors`` holds the per-cell failures (cell order), ``completed``
    the successful results — which were already written to the cache, so
    a re-run under ``keep_going`` (or after a fix) resumes from them.
    """

    def __init__(self, errors: List[CellError], completed: Dict[Any, Any]) -> None:
        lines = "\n  ".join(error.summary() for error in errors)
        super().__init__(
            f"{len(errors)} sweep cell{'s' if len(errors) != 1 else ''} "
            f"failed (completed cells are cached; pass keep_going=True / "
            f"--keep-going to assemble partial results):\n  {lines}"
        )
        self.errors = errors
        self.completed = completed


#: Payload shipped to a worker: everything needed to run one cell with
#: the full failure policy applied *inside* the worker, so retries and
#: timeouts behave identically in-process and across the pool.  The two
#: booleans are (collect_metrics, collect_trace).
_Payload = Tuple[
    int,
    str,
    Dict[str, Any],
    int,
    Optional[float],
    int,
    float,
    bool,
    bool,
]
#: What a collecting cell observed: its metric and fault repro.obs/v1
#: records as plain dicts, its packet events as the tracer's tuples.
_Observed = Tuple[List[Dict[str, Any]], List["TraceEvent"]]
#: What comes back: (index, failure-or-None, value, attempts, wall_time,
#: observed) where failure is (error name, message, traceback,
#: timed_out) and observed is None when collection was off.
_Outcome = Tuple[
    int,
    Optional[Tuple[str, str, str, bool]],
    Any,
    int,
    float,
    Optional[_Observed],
]


@contextmanager
def _alarm(seconds: Optional[float]):
    """Arm a SIGALRM-based wall-clock ceiling around a cell execution.

    No-op when ``seconds`` is None or the platform lacks ``SIGALRM``
    (the pure-Python simulator checks signals between bytecodes, so the
    alarm always lands).  The timer is cleared before results are
    pickled back, and fork does not inherit interval timers, so workers
    start clean.

    Safe under an enclosing SIGALRM user (e.g. a test harness arming
    its own per-test deadline): the previous handler is restored even
    if disarming raises, and a pending outer interval timer is re-armed
    with its remaining time instead of being silently cancelled.
    """
    import signal

    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeout(f"cell exceeded its {seconds:g} s wall-clock timeout")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    outer_delay, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    armed_at = time.monotonic()
    try:
        yield
    finally:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous_handler)
            if outer_delay:
                # The enclosing timer keeps ticking on *wall* time while
                # we borrowed the itimer; hand back whatever is left (a
                # tiny positive value if it already expired — zero would
                # disarm it instead of firing).
                remaining = outer_delay - (time.monotonic() - armed_at)
                signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6))


def _execute_payload_guarded(payload: _Payload) -> _Outcome:
    """Run one cell with exception capture, timeout, and retries.

    Runs identically in-process and inside a pool worker, which is what
    makes serial and parallel failure sets bit-identical: the guard is
    the same code object, so captured tracebacks match exactly.

    When collection is requested, an ambient
    :class:`~repro.obs.instrument.Instrumentation` is active around each
    attempt (fresh per attempt, so retries never double-record); cell
    functions opt in by calling
    :func:`~repro.obs.instrument.maybe_observe`.
    """
    (
        index,
        func_path,
        params,
        seed,
        timeout,
        retries,
        backoff,
        collect_metrics,
        collect_trace,
    ) = payload
    started = time.perf_counter()
    collect = collect_metrics or collect_trace
    attempt = 0
    while True:
        attempt_seed = (
            seed if attempt == 0 else derive_child_seed(seed, f"attempt/{attempt}")
        )
        try:
            func = resolve_func(func_path)
            if collect:
                from repro.net.packet import reset_uid_counter
                from repro.obs.instrument import Instrumentation, ambient

                reset_uid_counter()  # a trace is the cell's, not the process's
                instrumentation = Instrumentation(trace=collect_trace)
                with ambient(instrumentation):
                    with _alarm(timeout):
                        value = func(**params, seed=attempt_seed)
                observed: Optional[_Observed] = (
                    instrumentation.registry.to_records()
                    + instrumentation.fault_records(),
                    instrumentation.trace_events(),
                )
            else:
                with _alarm(timeout):
                    value = func(**params, seed=attempt_seed)
                observed = None
            wall = time.perf_counter() - started
            return index, None, value, attempt + 1, wall, observed
        # lint: allow-broad-except(worker guard must capture every cell failure as CellError data, never crash the pool)
        except Exception as exc:
            import traceback

            timed_out = isinstance(exc, CellTimeout)
            failure = (
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
                timed_out,
            )
        if attempt >= retries:
            wall = time.perf_counter() - started
            return index, failure, None, attempt + 1, wall, None
        time.sleep(backoff * (2.0 ** attempt))
        attempt += 1


def _tag(key: Any) -> str:
    """A cell key as the string that obs records carry."""
    from repro.obs.export import key_to_str

    return key_to_str(key)


def _default_context() -> multiprocessing.context.BaseContext:
    import multiprocessing

    # fork keeps the already-imported package in the children (fast,
    # and the norm on Linux); spawn is the portable fallback.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class RunStats:
    """What one :meth:`ParallelRunner.run_cells` call did."""

    total: int = 0
    cached: int = 0
    executed: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    failed: int = 0
    timed_out: int = 0
    retried: int = 0
    #: Terminal per-cell failures, in cell order (empty on a clean run).
    errors: List[CellError] = field(default_factory=list)
    #: Per-cell execution stories + collected metric records (see
    #: :mod:`repro.exec.telemetry`); populated by every run.
    telemetry: Optional[SweepTelemetry] = None


class ParallelRunner:
    """Executes sweep cells with caching, fan-out, and graceful failure.

    Args:
        jobs: Maximum worker processes (1 = in-process serial execution,
            no pool — unless ``timeout`` is set, which always uses a
            pool so a hung cell cannot hang the parent).
        cache: Result cache; ``None`` disables caching.
        timeout: Per-cell wall-clock ceiling in seconds (None = no limit).
        retries: Re-run a failed cell up to this many extra times, each
            attempt with a re-derived seed.
        backoff: Base of the exponential retry backoff:
            attempt *k* sleeps ``backoff * 2**k`` seconds first.
        keep_going: On cell failure, keep executing and report the
            failures in :attr:`RunStats.errors` /
            ``spec.assemble_partial`` instead of raising
            :class:`SweepError`.
        collect_metrics: Activate an ambient
            :class:`~repro.obs.instrument.Instrumentation` around each
            cell; cell functions that call ``maybe_observe(...)`` get
            their metrics shipped back and attached to
            :attr:`RunStats.telemetry`.
        collect_trace: Additionally enable packet/fault tracing on the
            ambient instrumentation (expensive; opt-in separately).

    The cache is the crash-recovery path: each result is stored as its
    cell completes, so running a killed sweep again on the same cache
    re-runs only the cells that had not finished (from scratch).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.25,
        keep_going: bool = False,
        collect_metrics: bool = False,
        collect_trace: bool = False,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = backoff
        self.keep_going = keep_going
        self.collect_metrics = collect_metrics
        self.collect_trace = collect_trace
        self._mp_context = mp_context
        self.last_stats = RunStats()

    def run(self, spec: ExperimentSpec) -> Any:
        """Execute every cell of ``spec`` and assemble the figure result.

        On a clean run this is ``spec.assemble``; when ``keep_going``
        swallowed failures it is ``spec.assemble_partial`` over the
        surviving cells.
        """
        values = self.run_cells(spec.cells())
        errors = {
            key: value for key, value in values.items()
            if isinstance(value, CellError)
        }
        if errors:
            good = {
                key: value for key, value in values.items()
                if not isinstance(value, CellError)
            }
            return spec.assemble_partial(good, errors)
        return spec.assemble(values)

    def run_cells(self, cells: Iterable[SweepCell]) -> Dict[Any, Any]:
        """Execute ``cells`` (cache-first) and return ``{cell.key: result}``.

        Failed cells appear as :class:`CellError` values under
        ``keep_going``; otherwise a :class:`SweepError` is raised after
        every in-flight cell has drained (and been cached).  The
        returned dict is in cell order regardless of completion order.
        """
        started = time.perf_counter()
        cells = list(cells)
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            raise ValueError(f"sweep cells must have unique keys, got {keys!r}")

        results: Dict[Any, Any] = {}
        pending: List[SweepCell] = []
        for cell in cells:
            if self.cache is not None:
                hit, value = self.cache.load(cell)
                if hit:
                    results[cell.key] = value
                    continue
            pending.append(cell)

        # Fail fast on typos: resolve the function of every cell the
        # cache did not serve *before* any cache store or pool fork, so
        # a bad path is one clear error instead of N identical worker
        # tracebacks.  A served cell needs no function (a typo cannot
        # hit: ``cell.func`` is part of the cache key), so a cache-warm
        # sweep never imports the simulator.
        for func_path in dict.fromkeys(cell.func for cell in pending):
            resolve_func(func_path)

        errors: Dict[Any, CellError] = {}
        cell_stories: Dict[Any, CellTelemetry] = {}
        # Gathered in the pool's completion order, emitted in cell order.
        gathered: Dict[int, _Observed] = {}
        retried = 0
        timed_out = 0
        for index, failure, value, attempts, wall, observed in self._execute(pending):
            cell = pending[index]
            retried += attempts - 1
            if observed is not None:
                gathered[index] = observed
            error_text: Optional[str] = None
            cell_timed_out = False
            if failure is None:
                results[cell.key] = value
                if self.cache is not None:
                    # Store as each cell completes: a crash later in
                    # the sweep cannot discard this cell's work, and a
                    # re-run of a killed sweep skips it.
                    self.cache.store(cell, value)
            else:
                error_name, message, trace, cell_timed_out = failure
                error_text = f"{error_name}: {message}"
                errors[cell.key] = CellError(
                    key=cell.key,
                    func=cell.func,
                    error=error_name,
                    message=message,
                    traceback=trace,
                    attempts=attempts,
                    timed_out=cell_timed_out,
                )
                if cell_timed_out:
                    timed_out += 1
            cell_stories[cell.key] = CellTelemetry(
                key=cell.key,
                cached=False,
                attempts=attempts,
                timed_out=cell_timed_out,
                error=error_text,
                wall_time=wall,
                metrics=summaries_from_records(observed[0]) if observed else {},
            )

        collected: List[Dict[str, Any]] = []
        traces: List[Tuple[str, List[TraceEvent]]] = []
        for index in sorted(gathered):
            records, events = gathered[index]
            tag = _tag(pending[index].key)
            for record in records:
                record["cell"] = tag
            collected.extend(records)
            traces.append((tag, events))
        error_list = [errors[cell.key] for cell in pending if cell.key in errors]
        elapsed = time.perf_counter() - started
        telemetry = SweepTelemetry(
            cells=[
                cell_stories.get(
                    cell.key,
                    CellTelemetry(
                        key=cell.key,
                        cached=True,
                        attempts=0,
                        timed_out=False,
                        error=None,
                        wall_time=0.0,
                    ),
                )
                for cell in cells
            ],
            collected=collected,
            traces=traces,
            total=len(cells),
            cached=len(cells) - len(pending),
            executed=len(pending),
            failed=len(error_list),
            timed_out=timed_out,
            retried=retried,
            elapsed=elapsed,
            jobs=self.jobs,
        )
        self.last_stats = RunStats(
            total=len(cells),
            cached=len(cells) - len(pending),
            executed=len(pending),
            jobs=self.jobs,
            elapsed=elapsed,
            failed=len(error_list),
            timed_out=timed_out,
            retried=retried,
            errors=error_list,
            telemetry=telemetry,
        )
        if error_list and not self.keep_going:
            raise SweepError(error_list, results)
        combined = {**results, **errors}
        return {cell.key: combined[cell.key] for cell in cells}

    def _execute(self, cells: Sequence[SweepCell]) -> Iterator[_Outcome]:
        """Yield guarded outcomes for ``cells`` (any completion order)."""
        payloads: List[_Payload] = [
            (
                index,
                cell.func,
                dict(cell.params),
                cell.seed,
                self.timeout,
                self.retries,
                self.backoff,
                self.collect_metrics,
                self.collect_trace,
            )
            for index, cell in enumerate(cells)
        ]
        if not payloads:
            return
        # A timeout always routes through a pool — SIGALRM in the parent
        # would collide with test harnesses (and a hung cell would still
        # hang a serial parent); a worker's main thread is all ours.
        use_pool = (self.jobs > 1 and len(payloads) > 1) or (
            self.timeout is not None
        )
        if not use_pool:
            for payload in payloads:
                yield _execute_payload_guarded(payload)
            return
        context = (
            self._mp_context if self._mp_context is not None else _default_context()
        )
        with context.Pool(processes=min(self.jobs, len(payloads))) as pool:
            # imap_unordered: one slow or crashing cell never blocks the
            # others' results from being consumed (and cached) promptly.
            for outcome in pool.imap_unordered(_execute_payload_guarded, payloads):
                yield outcome


def run_sweep(
    spec: ExperimentSpec,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    seed: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    keep_going: bool = False,
    collect_metrics: bool = False,
    collect_trace: bool = False,
    runner: Optional[ParallelRunner] = None,
) -> Any:
    """Run a declarative sweep end-to-end and return the assembled result.

    ``seed``, when given, overrides the spec's master seed (the common
    CLI case: one ``--seed`` flag threading into a preset spec).  Pass a
    pre-built ``runner`` to reuse one runner across sweeps (and read its
    ``last_stats`` afterwards); the other executor knobs are ignored
    then.
    """
    spec = spec.with_seed(seed)
    if runner is None:
        runner = ParallelRunner(
            jobs=jobs,
            cache=cache,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            keep_going=keep_going,
            collect_metrics=collect_metrics,
            collect_trace=collect_trace,
        )
    return runner.run(spec)
