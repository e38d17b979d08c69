"""Unit tests for the discrete-event engine.

The plain tests run on whatever build ``Simulator()`` resolves to; the
run-path and checked-loop tests at the bottom take the ``engine``
fixture and so run once per build (pure, and compiled when built).
"""

import heapq
import time

import pytest
from hypothesis import given, strategies as st

from repro.sim import ScheduleInPastError, SimulationError, Simulator
from repro.sim.errors import (
    DeadlineExceededError,
    InvariantViolation,
    LivelockError,
)
from repro.sim.rng import RngRegistry


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.dispatched_events == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append(3))
    sim.schedule(1.0, lambda: order.append(1))
    sim.schedule(2.0, lambda: order.append(2))
    sim.run()
    assert order == [1, 2, 3]


def test_fifo_among_equal_timestamps():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(1.0, (lambda k: lambda: order.append(k))(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_in_relative_delay():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule_in(0.5, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.5]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleInPastError):
        sim.schedule(0.5, lambda: None)
    with pytest.raises(ScheduleInPastError):
        sim.schedule_in(-0.1, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    # The later event is still pending and fires on the next run.
    sim.run(until=10.0)
    assert fired == ["a", "b"]
    assert sim.now == 10.0


def test_run_until_boundary_event_fires():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run(until=2.0)
    assert fired == [2.0]


def test_cancellation():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    assert not handle.cancelled
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_cancel_twice_is_harmless():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_cancel_during_run():
    sim = Simulator()
    fired = []
    later = sim.schedule(2.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: later.cancel())
    sim.run()
    assert fired == []


def test_max_events_budget():
    sim = Simulator()

    def reschedule():
        sim.schedule_in(1.0, reschedule)

    sim.schedule(0.0, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_events_scheduled_during_dispatch_run():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule_in(1.0, lambda: chain(n + 1))

    sim.schedule(0.0, lambda: chain(0))
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek_time() == 2.0


def test_pending_events_counts_only_live():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending_events == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_dispatch_order_is_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule(t, (lambda when: lambda: fired.append(when))(t))
    sim.run()
    assert fired == sorted(times)
    assert len(fired) == len(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    for t, keep in entries:
        handle = sim.schedule(t, (lambda when: lambda: fired.append(when))(t))
        if not keep:
            handle.cancel()
    sim.run()
    expected = sorted(t for t, keep in entries if keep)
    assert fired == expected


# ----------------------------------------------------------------------
# Run paths: the fast loop, _run_checked and step() must agree
# ----------------------------------------------------------------------
class _Boom(Exception):
    """Raised by the one poisoned event of a random program."""


def _random_program(seed, size=60):
    """A seeded event program as plain data, replayable on any simulator.

    Each node is ``(kind, delay, label, children, cancels, raises)``:
    ``kind`` picks ``post`` or ``schedule``, ``delay`` comes from a tiny
    grid so same-time ties are common (0.0 = fires at its parent's
    instant), ``children`` are node ids armed when the node fires,
    ``cancels`` are node ids whose handle it cancels (fired, cancelled
    or never-armed targets are all legal no-ops), and exactly one root
    raises after doing its work.
    """
    rng = RngRegistry(seed).stream("program")
    nodes = []
    for index in range(size):
        kind = rng.choice(("post", "schedule", "schedule"))
        delay = rng.choice((0.0, 0.0, 0.25, 0.5, 0.5, 1.0))
        cancels = [rng.randrange(size) for _ in range(rng.choice((0, 0, 1, 2)))]
        nodes.append([kind, delay, f"grp{index % 4} n{index}", [], cancels, False])
    roots = []
    for index in range(size):
        # Parents always have a smaller id than their children: a tree,
        # so the program is finite whatever order things fire in.
        if index < 8:
            roots.append(index)
        else:
            nodes[rng.randrange(index)][3].append(index)
    poisoned = nodes[rng.choice(roots)]
    poisoned[0], poisoned[5] = "post", True  # a post cannot be cancelled
    return nodes, roots


def _play(sim, program, drive):
    """Arm ``program`` on ``sim`` and run it with ``drive(sim)``.

    ``drive`` is called again after the poisoned event's exception
    escapes it, exactly like a caller resuming an interrupted run.
    Returns the dispatch log, the counters seen right after the
    exception, and the final counters.
    """
    nodes, roots = program
    log = []
    handles = {}

    def counters():
        return (sim.now, sim.dispatched_events, sim.pending_events, sim.event_seq)

    def arm(index):
        kind, delay, label = nodes[index][:3]
        if kind == "post":
            sim.post_in(delay, fire, (index,), label)
        else:
            handles[index] = sim.schedule_in(delay, fire, label, (index,))

    def fire(index):
        _, _, label, children, cancels, raises = nodes[index]
        log.append((sim.now, label))
        for child in children:
            arm(child)
        for target in cancels:
            if target in handles:
                handles[target].cancel()
        if raises:
            raise _Boom(label)

    for index in roots:
        arm(index)
    with pytest.raises(_Boom):
        drive(sim)
    after_raise = counters()
    drive(sim)
    return log, after_raise, counters()


def _drive_sliced(sim):
    # Bounded fast loop (C run_fast on the compiled build), then a drain.
    for until in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        sim.run(until=until)
    sim.run()


def _drive_checked(sim):
    sim.run(max_events=10**9)


def _drive_step(sim):
    before = sim.dispatched_events
    while sim.step():
        # One call, one event (folds the old test_step_dispatches_one_event).
        assert sim.dispatched_events == before + 1
        before += 1
    assert sim.step() is False
    assert sim.dispatched_events == before


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_run_paths_agree(engine, seed):
    program = _random_program(seed)
    reference = _play(Simulator(), program, _drive_sliced)
    log, _, (_, dispatched, pending, _) = reference
    assert len(log) == dispatched + 1  # the poisoned event logged, not counted
    assert len(set(when for when, _ in log)) < len(log)  # ties were exercised
    assert pending == 0
    for drive in (_drive_checked, _drive_step):
        assert _play(Simulator(), program, drive) == reference, drive.__name__


@pytest.mark.parametrize("outer", ["fast", "checked"])
@pytest.mark.parametrize("inner", ["run", "step"])
def test_run_and_step_not_reentrant(engine, outer, inner):
    """Neither entry point may be called from a callback of an active
    ``run()``: run keeps the dispatch counter in a local, so a nested
    dispatch would be lost from ``dispatched_events`` and from the
    ``max_events`` budget (folds the old test_run_not_reentrant)."""
    sim = Simulator()
    errors = []
    fired = []

    def nested():
        try:
            getattr(sim, inner)()
        except SimulationError as exc:
            errors.append(str(exc))

    sim.schedule(1.0, nested)
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.schedule(3.0, lambda: fired.append(sim.now))
    if outer == "fast":
        sim.run()
    else:
        sim.run(max_events=10**9)
    assert errors == [f"Simulator.{inner}() is not reentrant"]
    assert fired == [2.0, 3.0]
    assert sim.dispatched_events == 3
    # Outside run() both are callable again, and step may nest in step.
    sim.schedule(4.0, lambda: fired.append(sim.step()))
    sim.schedule(5.0, lambda: None)
    assert sim.step() is True
    assert fired[-1] is True and sim.dispatched_events == 5


# ----------------------------------------------------------------------
# The checked loop's contract, identical on both builds
# ----------------------------------------------------------------------
def _ticker(sim, delay):
    def tick():
        sim.post_in(delay, tick)

    sim.post(0.0, tick)


def test_checked_loop_watchdog_errors(engine):
    sim = Simulator()
    _ticker(sim, 1.0)
    with pytest.raises(SimulationError) as budget:
        sim.run(max_events=100)
    assert type(budget.value) is SimulationError
    assert str(budget.value) == "event budget exhausted (100 events)"
    assert (sim.now, sim.dispatched_events, sim.pending_events) == (99.0, 100, 1)
    with pytest.raises(SimulationError):  # the budget is cumulative
        sim.run(max_events=100)
    assert sim.dispatched_events == 101

    sim = Simulator()
    _ticker(sim, 0.0)
    with pytest.raises(LivelockError) as stuck:
        sim.run(until=1.0, livelock_threshold=500)
    assert str(stuck.value) == (
        "livelock detected: 500 events dispatched while the clock stayed "
        "at t=0.000000"
    )
    # The 500th pop raised before its callback ran or was counted.
    assert (sim.dispatched_events, sim.pending_events) == (499, 0)

    sim = Simulator()
    _ticker(sim, 1.0)
    sim.post(0.0, time.sleep, (0.02,))
    with pytest.raises(DeadlineExceededError) as late:
        sim.run(deadline=0.01)
    # Checked every 256th dispatch: 255 ticks + the sleep.
    assert str(late.value) == (
        "simulation exceeded its 0.01 s wall-clock deadline "
        "(sim time t=254.000000, 256 events dispatched)"
    )
    assert sim.dispatched_events == 256

    for kwargs, message in [
        ({"deadline": 0.0}, "deadline must be positive, got 0.0"),
        ({"livelock_threshold": 0}, "livelock_threshold must be positive, got 0"),
    ]:
        with pytest.raises(ValueError) as bad:
            sim.run(until=1.0, **kwargs)
        assert str(bad.value) == message


def test_checked_loop_sanitizer_invariants(engine):
    sim = Simulator(sanitize=True)
    sim.post(1.0, lambda: None)
    sim.post(2.0, lambda: None)
    sim.run(until=1.0)
    sim.now = 5.0  # the pending event is now in the past
    with pytest.raises(InvariantViolation) as regress:
        sim.run()
    assert regress.value.invariant == "heap-time-monotonic"
    assert regress.value.detail == (
        "heap head fires at t=2.0 but the clock is already at t=5.0 "
        "(heap or clock was mutated behind the engine's back)"
    )

    sim = Simulator(sanitize=True)
    sim.post(1.0, lambda: None)
    # Smuggle an entry past the live counter.  Read-modify-assign: the
    # compiled build materializes ``_heap`` on read (docs/COMPILED.md).
    heap = sim._heap
    heapq.heappush(heap, (1.5, 10**9, (lambda: None), None, "bogus"))
    sim._heap = heap
    for entry in (sim.run, lambda: sim.run(until=2.0, max_events=10)):
        with pytest.raises(InvariantViolation) as drift:
            entry()
        assert drift.value.invariant == "live-counter"
        assert drift.value.detail == (
            "live-event counter says 1 but the heap holds 2 live entries "
            "(direct heap mutation, or a double-counted cancel)"
        )
    assert sim.dispatched_events == 0  # caught by the entry audit


def test_profile_groups_from_step_and_run(engine):
    """``step()`` profiles through the same Python bracket on both
    builds (it used to be a separate C code path on the compiled one)."""

    def build():
        sim = Simulator(profile=True)
        for index in range(6):
            sim.post(float(index), lambda: None, None, f"tx n{index}")
            sim.schedule(float(index), lambda: None, f"pr timer f{index}")
        sim.post(6.0, lambda: None)
        return sim

    stepped = build()
    while stepped.step():
        pass
    ran = build()
    ran.run()
    for sim in (stepped, ran):
        stats = sim.stats
        assert stats.profiled and stats.heap_high_water == 13
        assert stats.dispatched_events == 13
        assert {g.group: g.events for g in stats.groups} == {
            "tx": 6,
            "pr timer": 6,
            "(unlabeled)": 1,
        }
        assert all(g.wall_time > 0.0 for g in stats.groups)
