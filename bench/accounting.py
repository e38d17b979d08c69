"""Self-time accounting for the traced pass.

Two recorders, both in memory until the pass ends:

* :class:`SelfTimeAccountant` folds the ~10^6 per-event boundary
  crossings of a run into per-layer ``(calls, self_s)`` accumulators.  A
  child-time stack makes nested and re-entrant calls
  (``Node.receive -> TcpReceiver.receive -> Node.send``) count once: a
  call's self time is its duration minus the duration of the wrapped
  calls made directly inside it.
* :class:`SpanLog` keeps the few coarse spans (build, run, cell, cache
  load/store, export, parse, analyze) individually as
  ``(name, start, end, parent, workload)``.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from bench import clock


class SelfTimeAccountant:
    """Per-layer call counts and self time, exact under nesting.

    ``wrap(layer, fn)`` returns a timing wrapper for one boundary
    function.  Callers that cannot be wrapped (the engine's event
    callbacks, timed by ``Simulator(profile=True)``) report their
    duration through :meth:`charge_root`, which keeps only the part not
    already covered by the wrapped calls they made.
    """

    def __init__(self, now: Callable[[], float] = clock.now) -> None:
        self._now = now
        #: One ``[child_seconds]`` cell per wrapped call in progress.
        self._stack: List[List[float]] = []
        #: layer -> ``[calls, self_seconds]``.
        self._cells: Dict[str, List[Any]] = {}
        #: Duration of depth-0 wrapped calls since the last root charge.
        self._top = [0.0]

    def _cell(self, layer: str) -> List[Any]:
        return self._cells.setdefault(layer, [0, 0.0])

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        cell = self._cell(layer)
        stack, now, top = self._stack, self._now, self._top

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                stack.pop()
                cell[0] += 1
                cell[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    top[0] += elapsed

        return timed

    def charge_root(self, layer: str, elapsed: float) -> None:
        """Account an unwrapped outermost caller that ran for ``elapsed``.

        Adds self time only: ``calls`` counts wrapped calls.
        """
        self._cell(layer)[1] += elapsed - self._top[0]
        self._top[0] = 0.0

    def reset_top(self) -> None:
        """Forget depth-0 calls made outside any root (set-up code)."""
        self._top[0] = 0.0

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """layer -> ``(calls, self_s)`` as of now."""
        return {
            layer: (int(cell[0]), float(cell[1]))
            for layer, cell in sorted(self._cells.items())
        }


class SpanLog:
    """Coarse spans, recorded one by one with their parent."""

    def __init__(
        self, workload: str, now: Callable[[], float] = clock.now
    ) -> None:
        self.workload = workload
        self._now = now
        self._open: List[int] = []
        #: ``[name, start, end, parent_index_or_None, workload]`` rows.
        self.spans: List[List[Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent: Optional[int] = self._open[-1] if self._open else None
        index = len(self.spans)
        row: List[Any] = [name, self._now(), None, parent, self.workload]
        self.spans.append(row)
        self._open.append(index)
        try:
            yield
        finally:
            row[2] = self._now()
            self._open.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            row[2] - row[1]
            for row in self.spans
            if row[0] == name and row[2] is not None
        )
