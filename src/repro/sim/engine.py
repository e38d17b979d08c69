"""The discrete-event simulation engine.

A :class:`Simulator` is a priority queue of pending callbacks plus a
clock.  Components capture a reference to the simulator, call
:meth:`Simulator.schedule` / :meth:`Simulator.post`, and read
:attr:`Simulator.now`.  The engine is deliberately minimal — all protocol
logic lives in the components.

Two scheduling flavours share one heap:

* :meth:`Simulator.schedule` returns a cancellable :class:`EventHandle`
  — for timers that may be disarmed (drop timers, RTO, delayed ACKs).
* :meth:`Simulator.post` is fire-and-forget: no handle is allocated at
  all, the bare callable sits directly in the heap entry.  This is the
  packet hot path (link transmission/propagation, monitor ticks), where
  a per-event handle object would be pure garbage-collector load.

Both accept an optional ``args`` tuple so components can pass one cached
bound method plus arguments instead of allocating a fresh closure per
event, and a ``label`` that is only ever *read* under ``profile=True`` —
callers precompute labels once per component instead of formatting an
f-string per event.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from pathlib import Path

from repro.sim.errors import (
    DeadlineExceededError,
    InvariantViolation,
    LivelockError,
    ScheduleInPastError,
    SimulationError,
)
from repro.sim.events import EventHandle
from repro.sim.profile import SimProfile, SimStats, build_stats
from repro.sim.rng import RngRegistry

#: How many dispatched events pass between wall-clock deadline checks.
#: ``time.monotonic`` costs ~50 ns, an event dispatch ~1 µs, so checking
#: every event would be measurable; every 256th is free and still bounds
#: the overshoot to well under a millisecond of wall time.
_DEADLINE_CHECK_INTERVAL = 256

#: Under ``sanitize=True``, how many dispatches pass between live-event
#: counter audits (each audit is an O(heap) scan, so amortize it).
_SANITIZE_AUDIT_INTERVAL = 1024

_INF = float("inf")

#: One heap entry: ``(time, seq, target, args, label)``.
_HeapEntry = Tuple[float, int, Any, Optional[Tuple[Any, ...]], str]

# Bound once: a module-global load is one dict probe cheaper than
# ``heapq.heappush`` (global + attribute) in the per-event schedulers.
_heappush = heapq.heappush

#: The compiled ``Simulator`` subclass from ``repro._cext._core``, or
#: None when the pure engine is active.  Written only by
#: :mod:`repro.core.engine_select`; read by ``Simulator.__new__``.
_COMPILED_SIMULATOR: Optional[type] = None


def _resolve_engine() -> Optional[type]:
    """Install the active engine build (resolved from ``REPRO_ENGINE``,
    default auto, when none was chosen) and return its compiled class."""
    from repro.core import engine_select

    engine_select.install()
    return _COMPILED_SIMULATOR


class Simulator:
    """Heap-based discrete-event scheduler with a seeded RNG registry.

    Args:
        seed: Master seed for the per-component RNG streams.
        profile: Collect per-label-group event counts, callback wall
            time, and the live-event high-water mark (see
            :mod:`repro.sim.profile`); read the report from
            :attr:`stats`.  Off by default — profiling adds a
            ``perf_counter`` pair around every dispatch.
        sanitize: Run cheap structural invariant checks during dispatch
            (heap time monotonicity, live-event counter audits) and
            enable per-ACK checks in invariant-aware components (the
            TCP-PR sender reads this flag).  A violation raises
            :class:`~repro.sim.errors.InvariantViolation` at the moment
            the invariant breaks rather than letting the run diverge
            silently.  Off by default — sanitizing forces the checked
            run loop (:func:`_run_checked`).

    Attributes:
        now: Current simulation time in seconds.
        rng: The :class:`RngRegistry` for this run.
        sanitize: The sanitizer flag; components read it dynamically, so
            tests may flip it after building a scenario.
    """

    __slots__ = (
        "now",
        "rng",
        "sanitize",
        "_heap",
        "_seq",
        "_dispatched",
        "_live",
        "_running",
        "_profile",
        "_components",
    )

    def __init__(
        self, seed: int = 0, profile: bool = False, sanitize: bool = False
    ) -> None:
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self.sanitize = sanitize
        # Heap entries are (time, seq, target, args, label) tuples: tuple
        # comparison is C-level and never reaches element 2, so targets
        # need no ordering.  ``target`` is an EventHandle for cancellable
        # events and the bare callable for fire-and-forget posts.
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._dispatched = 0
        # Live (not cancelled, not yet dispatched) events.  Maintained by
        # schedule/post/dispatch and EventHandle.cancel so introspection
        # never has to scan the heap.
        self._live = 0
        self._running = False
        self._profile: Optional[SimProfile] = SimProfile() if profile else None
        # Name -> component registry (insertion-ordered), filled only by
        # explicit register_component calls.  Purely passive: it rides
        # a checkpoint so callers can find their objects after a resume.
        self._components: Dict[str, Any] = {}

    def __new__(cls, *args: Any, **kwargs: Any) -> "Simulator":
        # Engine selection happens here, not at import time: constructing
        # the *facade* class returns an instance of whichever build
        # repro.core.engine_select has active (the compiled subclass when
        # the extension is built and selected, this class otherwise).
        # Late binding means import order never matters and one process
        # can hold pure and compiled simulators side by side.  Explicit
        # subclass construction (including the compiled class itself)
        # passes straight through.
        if cls is Simulator:
            impl = _COMPILED_SIMULATOR
            if impl is None:
                impl = _resolve_engine()
            if impl is not None:
                new: Callable[..., "Simulator"] = impl.__new__
                return new(impl)
        return object.__new__(cls)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def reserve_seq(self) -> int:
        """Allocate a tie-break sequence number without pushing an event.

        Same-time events fire in ascending ``seq`` order, so a component
        that coalesces many logical timers into one heap event (the
        TCP-PR flow drop timer, the lazily-extended RTO) can reserve a
        seq at the moment the *logical* timer is armed and later pass it
        to :meth:`schedule` — the coalesced event then fires exactly
        where the individual event it replaces would have, preserving
        tie order against unrelated same-time events.  A reserved seq
        must back at most one live event at a time.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        label: str = "",
        args: Optional[Tuple[Any, ...]] = None,
        seq: Optional[int] = None,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``.

        Args:
            time: Absolute fire time (``>= now``).
            callback: Called as ``callback(*args)`` (no-arg if ``args``
                is None) when the event fires.
            label: Profiling tag; pass a per-component constant, not a
                per-event f-string.
            args: Optional argument tuple, so a cached bound method can
                replace a per-call closure.
            seq: A previously :meth:`reserve_seq`-ed tie-breaker; None
                (the default) allocates a fresh one.

        Returns:
            A cancellable :class:`EventHandle`.

        Raises:
            ScheduleInPastError: if ``time`` is before the current clock.
        """
        if time < self.now:
            raise ScheduleInPastError(time, self.now)
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        handle = EventHandle(time, seq, callback, label, owner=self)
        _heappush(self._heap, (time, seq, handle, args, label))
        live = self._live + 1
        self._live = live
        profile = self._profile
        if profile is not None and live > profile.heap_high_water:
            profile.heap_high_water = live
        return handle

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., Any],
        label: str = "",
        args: Optional[Tuple[Any, ...]] = None,
    ) -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        if delay < 0:
            raise ScheduleInPastError(self.now + delay, self.now)
        return self.schedule(self.now + delay, callback, label, args)

    def post(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Optional[Tuple[Any, ...]] = None,
        label: str = "",
    ) -> None:
        """Schedule a fire-and-forget event — no :class:`EventHandle`.

        The per-event cost is one heap tuple; use this on paths that
        never cancel (packet transmission/propagation, monitor ticks).

        Raises:
            ScheduleInPastError: if ``time`` is before the current clock.
        """
        if time < self.now:
            raise ScheduleInPastError(time, self.now)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, callback, args, label))
        live = self._live + 1
        self._live = live
        profile = self._profile
        if profile is not None and live > profile.heap_high_water:
            profile.heap_high_water = live

    def post_in(
        self,
        delay: float,
        callback: Callable[..., Any],
        args: Optional[Tuple[Any, ...]] = None,
        label: str = "",
    ) -> None:
        """Fire-and-forget ``delay`` seconds from now (``delay >= 0``).

        Inlined rather than delegating to :meth:`post` — this is the
        single hottest scheduling call (both per-packet link events).
        """
        if delay < 0:
            raise ScheduleInPastError(self.now + delay, self.now)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now + delay, seq, callback, args, label))
        live = self._live + 1
        self._live = live
        profile = self._profile
        if profile is not None and live > profile.heap_high_water:
            profile.heap_high_water = live

    def post_batch(
        self,
        events: "List[Tuple[float, Callable[..., Any], Optional[Tuple[Any, ...]], str]]",
    ) -> None:
        """Fire-and-forget a block of events in one bulk heap operation.

        Each item is ``(time, callback, args, label)`` — the positional
        signature of :meth:`post`.  Sequence numbers are allocated in
        item order, so a batch is observably identical to posting the
        items one by one (the heap's pop order depends only on
        ``(time, seq)``, never on internal array layout); callers that
        already hold a block of events — a trace replay schedule, the
        shard driver's admission arrivals, a fault timeline — skip the
        per-event ``heappush`` rebalancing and pay one O(n + k) heapify
        instead of k O(log n) pushes.

        Raises:
            ScheduleInPastError: if any item's time is before the
                current clock (the whole batch is rejected).
        """
        now = self.now
        seq = self._seq
        entries: List[_HeapEntry] = []
        append = entries.append
        for time, callback, args, label in events:
            if time < now:
                raise ScheduleInPastError(time, now)
            append((time, seq, callback, args, label))
            seq += 1
        if not entries:
            return
        self._seq = seq
        heap = self._heap
        # Crossover: heapify touches the whole heap (O(n + k)), pushes
        # cost O(k log n).  For small batches against a big heap, pushes
        # win; for block-sized batches, heapify does.  Either branch
        # yields a valid heap, so dispatch order is unaffected.
        if len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                _heappush(heap, entry)
        live = self._live + len(entries)
        self._live = live
        profile = self._profile
        if profile is not None and live > profile.heap_high_water:
            profile.heap_high_water = live

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        deadline: Optional[float] = None,
        livelock_threshold: Optional[int] = None,
    ) -> None:
        """Dispatch events in time order.

        Args:
            until: Stop once the clock would pass this time; the clock is
                left exactly at ``until``.  ``None`` runs until the event
                queue drains.
            max_events: Safety valve — abort with :class:`SimulationError`
                after dispatching this many events (catches accidental
                infinite event loops in tests).  The budget is cumulative
                over the simulator's lifetime (it compares against
                :attr:`dispatched_events`).
            deadline: Wall-clock watchdog — abort with
                :class:`DeadlineExceededError` once this many real seconds
                have elapsed since the call started (checked every
                ``_DEADLINE_CHECK_INTERVAL`` events, so very cheap).
            livelock_threshold: Livelock watchdog — abort with
                :class:`LivelockError` after this many consecutive events
                dispatched without the clock advancing (a zero-delay event
                loop; legitimate same-instant bursts are orders of
                magnitude smaller than a sensible threshold).

        A call with no watchdog argument on a simulator without
        ``profile``/``sanitize`` takes the fast loop below (every figure
        run does); anything else runs in :func:`_run_checked`.
        """
        if (
            max_events is not None
            or deadline is not None
            or livelock_threshold is not None
            or self._profile is not None
            or self.sanitize
        ):
            _run_checked(self, until, max_events, deadline, livelock_threshold)
            return
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        # The dispatch counter runs as a local and is written back in the
        # finally block: one attribute store per run() instead of one per
        # event.  step() refuses to run while this frame owns the counter.
        dispatched = self._dispatched
        try:
            heap = self._heap
            pop = heapq.heappop
            handle_type = EventHandle
            until_cmp = _INF if until is None else until
            # Fast loop: no watchdogs, no profiling — the per-event work
            # is exactly peek, pop, clock advance, callback.
            while heap:
                entry = heap[0]
                target = entry[2]
                if type(target) is handle_type:
                    callback = target.callback
                    if callback is None:  # lazily-deleted (cancelled)
                        pop(heap)
                        continue
                    if entry[0] > until_cmp:
                        break
                    pop(heap)
                    target.callback = None  # mark dispatched
                else:
                    callback = target
                    if entry[0] > until_cmp:
                        break
                    pop(heap)
                self._live -= 1
                self.now = entry[0]
                args = entry[3]
                # One-arg events (a packet) are the overwhelming
                # majority; a direct call skips CALL_FUNCTION_EX.
                if args is None:
                    callback()
                elif len(args) == 1:
                    callback(args[0])
                else:
                    callback(*args)
                dispatched += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._dispatched = dispatched
            self._running = False

    def _pop_due(self, until_cmp: float) -> Optional[Tuple[Any, ...]]:
        """Pop the next live event due at or before ``until_cmp``.

        The one primitive everything off the fast loop is built on
        (:func:`_run_checked`, :meth:`step`); the compiled class
        overrides it in C.  Pops lazily-deleted (cancelled) heads on the
        way, marks handle-backed events dispatched, and decrements the
        live counter — everything a dispatch does *before* advancing the
        clock.  Returns ``(time, callback, args, label)`` or None when
        nothing is due.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            target = entry[2]
            if type(target) is EventHandle:
                callback = target.callback
                if callback is None:  # lazily-deleted (cancelled)
                    heapq.heappop(heap)
                    continue
                if entry[0] > until_cmp:
                    return None
                heapq.heappop(heap)
                target.callback = None  # mark dispatched
            else:
                callback = target
                if entry[0] > until_cmp:
                    return None
                heapq.heappop(heap)
            self._live -= 1
            return (entry[0], callback, entry[3], entry[4])
        return None

    @classmethod
    def resume(cls, path: "Path | str") -> "Simulator":
        """Load a :meth:`save_checkpoint` file and return the restored
        simulator, ready to :meth:`run` on from where it was saved.

        Equivalent to ``load_checkpoint(path).resume()`` — restores
        process-global counters and, under ``sanitize=True``, audits the
        restored heap (see :meth:`_audit_resume`).
        """
        from repro.checkpoint.snapshot import load_checkpoint

        restored = load_checkpoint(path).resume()
        if not isinstance(restored, cls):
            raise SimulationError(
                f"checkpoint {path} holds a {type(restored).__name__}, "
                f"not a {cls.__name__}"
            )
        return restored

    def save_checkpoint(self, path: "Path | str") -> None:
        """Snapshot this simulator to ``path`` (see :mod:`repro.checkpoint`).

        The whole object graph reachable from the simulator is saved —
        its heap reaches every live component — so a caller registers
        (:meth:`register_component`) only the objects it wants to find
        again by name after :meth:`resume`.
        """
        from repro.checkpoint.snapshot import save_checkpoint

        save_checkpoint(self, path)

    # ------------------------------------------------------------------
    # Component registry
    # ------------------------------------------------------------------
    def register_component(self, name: str, component: Any) -> None:
        """Register a named component with this simulator (a reused
        name replaces the earlier entry).

        Purely passive bookkeeping (no events, no behavior change): a
        checkpoint carries the registry with the graph, and callers use
        :meth:`component` to find their objects again after a resume.
        Nothing registers itself.
        """
        self._components[name] = component

    def component(self, name: str) -> Any:
        """Look up a registered component by name.

        Raises:
            SimulationError: if nothing is registered under ``name``.
        """
        try:
            return self._components[name]
        except KeyError:
            raise SimulationError(
                f"no component registered as {name!r} "
                f"(known: {sorted(self._components)})"
            ) from None

    def step(self) -> bool:
        """Dispatch the single next pending event.

        Shared by both engine builds (the compiled class inherits it and
        supplies only the C ``_pop_due``).

        Returns:
            True if an event was dispatched, False if the queue is empty.

        Raises:
            SimulationError: if called from a callback while :meth:`run`
                is active (``run`` owns the dispatch counter).
        """
        if self._running:
            raise SimulationError("Simulator.step() is not reentrant")
        popped = self._pop_due(_INF)
        if popped is None:
            return False
        self.now, callback, args, label = popped
        profile = self._profile
        started = _time.perf_counter() if profile is not None else 0.0
        if args is None:
            callback()
        else:
            callback(*args)
        if profile is not None:
            profile.record(label, _time.perf_counter() - started)
        self._dispatched += 1
        return True

    # ------------------------------------------------------------------
    # Sanitizer
    # ------------------------------------------------------------------
    def _audit_live(self) -> None:
        """Recount live heap entries against the O(1) ``_live`` counter.

        Sanitizer-mode only (O(heap) scan).  A mismatch means something
        pushed onto or dropped from the heap without going through
        schedule/post/cancel bookkeeping.
        """
        actual = 0
        for entry in self._heap:
            target = entry[2]
            if type(target) is EventHandle and target.callback is None:
                continue  # lazily-deleted (cancelled) entry
            actual += 1
        if actual != self._live:
            raise InvariantViolation(
                "live-counter",
                f"live-event counter says {self._live} but the heap holds "
                f"{actual} live entries (direct heap mutation, or a "
                "double-counted cancel)",
            )

    def _audit_resume(self) -> None:
        """Structural audit of a freshly-restored simulator.

        Called by :meth:`repro.checkpoint.snapshot.Checkpoint.resume`
        when the restored simulator has ``sanitize=True``: every live
        restored heap entry must fire at or after the restored clock,
        and the O(1) live-event counter must match the heap (a mismatch
        means the snapshot itself was taken from a corrupted engine, or
        the restore path lost events).
        """
        for entry in self._heap:
            target = entry[2]
            if type(target) is EventHandle and target.callback is None:
                continue  # lazily-deleted (cancelled) entry
            if entry[0] < self.now:
                raise InvariantViolation(
                    "resume-heap-time",
                    f"restored heap event {entry[4]!r} fires at "
                    f"t={entry[0]!r}, before the restored clock "
                    f"t={self.now!r}",
                )
        self._audit_live()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    @property
    def dispatched_events(self) -> int:
        """Total number of events dispatched so far."""
        return self._dispatched

    @property
    def event_seq(self) -> int:
        """The next tie-break sequence number (monotonic event counter)."""
        return self._seq

    @property
    def stats(self) -> SimStats:
        """Dispatch counters plus, under ``profile=True``, the per-group
        event/wall-time breakdown and live-event high-water mark."""
        return build_stats(self._dispatched, self._live, self._profile)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty.

        Pops lazily-deleted (cancelled) heads on the way — the heap root
        is already the minimum, so no sort is ever needed, and discarded
        entries don't have to be skipped again by the next caller.
        """
        heap = self._heap
        while heap:
            target = heap[0][2]
            if type(target) is not EventHandle or target.callback is not None:
                return heap[0][0]
            heapq.heappop(heap)
        return None

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self.now:.6f} pending={self._live} "
            f"dispatched={self._dispatched}>"
        )


def _run_checked(
    sim: "Simulator",
    until: Optional[float],
    max_events: Optional[int],
    deadline: Optional[float],
    livelock_threshold: Optional[int],
) -> None:
    """The one watchdog/profile/sanitize run loop, shared by both builds.

    :meth:`Simulator.run` and the compiled ``run`` both hand over to
    this function whenever a watchdog argument, ``profile`` or
    ``sanitize`` is in play, so checked-path semantics (error types,
    messages, check cadence, counter write-back) have a single
    definition.  The per-event pop/cancel/mark-dispatched work goes
    through ``sim._pop_due`` (pure or C); the price over an inline loop
    is one method call and one 4-tuple per *dispatched* event
    (≈0.3 µs), paid only by checked runs.
    """
    if sim._running:
        raise SimulationError("Simulator.run() is not reentrant")
    if deadline is not None and deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline}")
    if livelock_threshold is not None and livelock_threshold <= 0:
        raise ValueError(
            f"livelock_threshold must be positive, got {livelock_threshold}"
        )
    sim._running = True
    started_wall = _time.monotonic() if deadline is not None else 0.0
    stalled = 0
    dispatched = sim._dispatched
    try:
        profile = sim._profile
        until_cmp = _INF if until is None else until
        sanitize = sim.sanitize
        if sanitize:
            sim._audit_live()
        pop_due = sim._pop_due
        while True:
            popped = pop_due(until_cmp)
            if popped is None:
                break
            head_time, callback, args, label = popped
            if livelock_threshold is not None:
                if head_time > sim.now:
                    stalled = 0
                else:
                    stalled += 1
                    if stalled >= livelock_threshold:
                        raise LivelockError(head_time, stalled)
            if sanitize and head_time < sim.now:
                raise InvariantViolation(
                    "heap-time-monotonic",
                    f"heap head fires at t={head_time!r} but the clock "
                    f"is already at t={sim.now!r} (heap or clock was "
                    "mutated behind the engine's back)",
                )
            sim.now = head_time
            if profile is None:
                if args is None:
                    callback()
                else:
                    callback(*args)
            else:
                started = _time.perf_counter()
                if args is None:
                    callback()
                else:
                    callback(*args)
                profile.record(label, _time.perf_counter() - started)
            dispatched += 1
            if sanitize and dispatched % _SANITIZE_AUDIT_INTERVAL == 0:
                sim._audit_live()
            if max_events is not None and dispatched >= max_events:
                raise SimulationError(
                    f"event budget exhausted ({max_events} events)"
                )
            if (
                deadline is not None
                and dispatched % _DEADLINE_CHECK_INTERVAL == 0
                and _time.monotonic() - started_wall > deadline
            ):
                raise DeadlineExceededError(deadline, sim.now, dispatched)
        if sanitize and not sim._heap:
            sim._audit_live()  # drained heap must leave _live == 0
        if until is not None and sim.now < until:
            sim.now = until
    finally:
        sim._dispatched = dispatched
        sim._running = False
