"""The self-time accountant: nesting, re-entrancy, exceptions, roots."""

import pytest

from bench.accounting import SelfTimeAccountant, SpanLog


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_nested_calls_are_not_double_counted():
    clock = FakeClock()
    acct = SelfTimeAccountant(now=clock)

    def inner():
        clock.advance(3.0)

    timed_inner = acct.wrap("tcp", inner)

    def outer():
        clock.advance(1.0)
        timed_inner()
        clock.advance(2.0)

    acct.wrap("net", outer)()
    assert acct.snapshot() == {"net": (1, 3.0), "tcp": (1, 3.0)}


def test_reentrant_same_layer_counts_each_second_once():
    # Node.receive -> TcpReceiver.receive -> Node.send: net, tcp, net.
    clock = FakeClock()
    acct = SelfTimeAccountant(now=clock)

    def send():
        clock.advance(0.5)

    timed_send = acct.wrap("net", send)

    def agent_receive():
        clock.advance(2.0)
        timed_send()

    timed_agent = acct.wrap("tcp", agent_receive)

    def node_receive():
        clock.advance(1.0)
        timed_agent()
        clock.advance(1.0)

    acct.wrap("net", node_receive)()
    assert acct.snapshot() == {"net": (2, 2.5), "tcp": (1, 2.0)}
    # Self times add up to the outermost call's duration.
    assert sum(s for _, s in acct.snapshot().values()) == pytest.approx(clock.t)


def test_recursion_in_one_function():
    clock = FakeClock()
    acct = SelfTimeAccountant(now=clock)

    def countdown(n):
        clock.advance(1.0)
        if n:
            timed(n - 1)

    timed = acct.wrap("core", countdown)
    timed(3)
    assert acct.snapshot() == {"core": (4, 4.0)}


def test_exception_unwinds_the_stack_and_keeps_the_time():
    clock = FakeClock()
    acct = SelfTimeAccountant(now=clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("x")

    timed_boom = acct.wrap("tcp", boom)

    def outer():
        clock.advance(1.0)
        try:
            timed_boom()
        except ValueError:
            clock.advance(4.0)

    acct.wrap("net", outer)()
    assert acct.snapshot() == {"net": (1, 5.0), "tcp": (1, 2.0)}
    with pytest.raises(ValueError):
        timed_boom()
    # The propagated failure is a complete depth-0 call: the next one
    # starts from an empty stack.
    acct.wrap("net", lambda: clock.advance(1.0))()
    assert acct.snapshot() == {"net": (2, 6.0), "tcp": (2, 4.0)}


def test_root_charge_keeps_only_uncovered_time():
    # An engine callback (unwrapped, timed by the profiler) that spends
    # 1 s itself and makes two wrapped depth-0 calls.
    clock = FakeClock()
    acct = SelfTimeAccountant(now=clock)
    send = acct.wrap("net", lambda: clock.advance(2.0))
    route = acct.wrap("routing", lambda: clock.advance(0.5))
    clock.advance(1.0)
    send()
    route()
    acct.charge_root("core", elapsed=3.5)
    assert acct.snapshot() == {
        "core": (0, 1.0),
        "net": (1, 2.0),
        "routing": (1, 0.5),
    }
    # The next root starts clean.
    acct.charge_root("core", elapsed=0.25)
    assert acct.snapshot()["core"] == (0, 1.25)


def test_reset_top_forgets_set_up_calls():
    clock = FakeClock()
    acct = SelfTimeAccountant(now=clock)
    acct.wrap("tcp.make_sender", lambda: clock.advance(5.0))()
    acct.reset_top()
    acct.charge_root("net", elapsed=1.0)
    assert acct.snapshot()["net"] == (0, 1.0)


def test_wrapper_passes_arguments_and_results_through():
    acct = SelfTimeAccountant(now=FakeClock())
    assert acct.wrap("x", lambda a, b=1: a + b)(2, b=3) == 5


def test_span_log_records_parents_and_survives_exceptions():
    clock = FakeClock()
    log = SpanLog("w", now=clock)
    with log.span("run"):
        clock.advance(1.0)
        with pytest.raises(RuntimeError):
            with log.span("cell"):
                clock.advance(2.0)
                raise RuntimeError
        with log.span("cell"):
            clock.advance(3.0)
    assert log.spans == [
        ["run", 0.0, 6.0, None, "w"],
        ["cell", 1.0, 3.0, 0, "w"],
        ["cell", 3.0, 6.0, 0, "w"],
    ]
    assert log.total("cell") == 5.0
