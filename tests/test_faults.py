"""Tests for the fault-injection subsystem (repro.faults) and the
simulator watchdog it leans on."""

import json

import pytest

from repro.app.bulk import BulkTransfer
from repro.exec.runner import run_sweep
from repro.experiments.fig7_faults import (
    Fig7Spec,
    format_fig7,
    outage_schedule,
)
from repro.faults import (
    AckLoss,
    DelaySpike,
    FaultSchedule,
    FaultScheduleError,
    FaultTargetError,
    Injector,
    LinkDown,
    LinkUp,
    PathBlackout,
    inject,
)
from repro.net.network import Network, install_static_routes
from repro.routing.flap import RouteFlapper
from repro.routing.multipath import EpsilonMultipathPolicy
from repro.sim.engine import Simulator
from repro.sim.errors import (
    DeadlineExceededError,
    LivelockError,
    SimulationError,
)
from repro.topologies.multipath_mesh import (
    MultipathMeshSpec,
    install_epsilon_routing,
)
from repro.obs import FaultTimelineMonitor

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# Schedule construction and JSON round-trip
# ----------------------------------------------------------------------
def _sample_schedule():
    return FaultSchedule(
        [
            LinkUp(time=7.0, src="a", dst="b"),
            LinkDown(time=5.0, src="a", dst="b", flush=True),
            PathBlackout(time=5.0, duration=2.0, origin="a", dst="c",
                         path_index=1),
            DelaySpike(time=7.0, duration=1.0, src="a", dst="b", factor=3.0),
            AckLoss(time=5.0, duration=2.0, src="b", dst="a", rate=0.5),
        ]
    )


def test_schedule_sorts_by_time_keeping_registration_order():
    schedule = _sample_schedule()
    assert [event.time for event in schedule] == [5.0, 5.0, 5.0, 7.0, 7.0]
    # Equal-time events keep their construction order.
    assert [event.kind for event in schedule] == [
        "link-down", "path-blackout", "ack-loss", "link-up", "delay-spike",
    ]


def test_schedule_json_round_trip_is_lossless():
    schedule = _sample_schedule()
    blob = json.dumps(schedule.to_jsonable())  # must be real JSON
    revived = FaultSchedule.from_jsonable(json.loads(blob))
    assert revived == schedule
    assert hash(revived) == hash(schedule)


def test_schedule_horizon_covers_windowed_events():
    assert _sample_schedule().horizon == 8.0  # delay spike ends at 7 + 1
    assert FaultSchedule().horizon == 0.0


def test_unknown_kind_and_unknown_fields_rejected():
    with pytest.raises(FaultScheduleError):
        FaultSchedule.from_jsonable([{"kind": "meteor-strike", "time": 1.0}])
    with pytest.raises(FaultScheduleError):
        FaultSchedule.from_jsonable(
            [{"kind": "link-down", "time": 1.0, "src": "a", "dst": "b",
              "sev": 9}]
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinkDown(time=-1.0, src="a", dst="b"),
        lambda: LinkDown(time=1.0, src="", dst="b"),
        lambda: PathBlackout(time=1.0, duration=0.0, origin="a", dst="b"),
        lambda: PathBlackout(time=1.0, duration=1.0, origin="a", dst="b",
                             path_index=-1),
        lambda: DelaySpike(time=1.0, duration=1.0, src="a", dst="b",
                           factor=0.0),
        lambda: AckLoss(time=1.0, duration=1.0, src="a", dst="b", rate=0.0),
        lambda: AckLoss(time=1.0, duration=1.0, src="a", dst="b", rate=1.5),
    ],
)
def test_invalid_events_rejected(build):
    with pytest.raises(FaultScheduleError):
        build()


def test_link_outage_builder_duplex():
    schedule = FaultSchedule.link_outage("a", "b", start=2.0, duration=3.0,
                                         duplex=True)
    kinds = sorted((event.kind, event.src, event.dst) for event in schedule)
    assert kinds == [
        ("link-down", "a", "b"), ("link-down", "b", "a"),
        ("link-up", "a", "b"), ("link-up", "b", "a"),
    ]


def test_periodic_blackouts_builder():
    schedule = FaultSchedule.periodic_blackouts(
        "src", "dst", path_index=0, period=5.0, duration=1.0, until=20.0
    )
    assert [event.time for event in schedule] == [5.0, 10.0, 15.0]
    assert all(event.kind == "path-blackout" for event in schedule)


# ----------------------------------------------------------------------
# Link-level faults
# ----------------------------------------------------------------------
def _two_node_net(seed=0):
    net = Network(seed=seed)
    net.add_nodes("snd", "rcv")
    net.add_duplex_link("snd", "rcv", bandwidth=1e6, delay=0.01, queue=50)
    install_static_routes(net)
    return net


def test_link_down_drops_and_link_up_recovers():
    net = _two_node_net()
    schedule = FaultSchedule.link_outage("snd", "rcv", start=2.0, duration=3.0,
                                         flush=True)
    inject(net, schedule)
    flow = BulkTransfer(net, "tcp-pr", "snd", "rcv", flow_id=1)

    net.run(until=2.5)
    during = flow.delivered_bytes()
    link = net.link("snd", "rcv")
    assert not link.up
    net.run(until=4.9)
    assert flow.delivered_bytes() == during  # nothing crosses a down link
    assert link.fault_drops > 0

    net.run(until=12.0)
    assert link.up
    assert flow.delivered_bytes() > during  # delivery resumed after up


def test_link_down_without_flush_holds_queue():
    net = _two_node_net()
    link = net.link("snd", "rcv")
    inject(net, FaultSchedule(
        [LinkDown(time=1.0, src="snd", dst="rcv", flush=False)]
    ))
    flow = BulkTransfer(net, "tcp-pr", "snd", "rcv", flow_id=1)
    net.run(until=3.0)
    # Held, not flushed: whatever was queued at t=1 is still waiting.
    assert not link.up
    assert flow.delivered_bytes() >= 0


def test_delay_spike_inflates_one_way_delay():
    net = _two_node_net()
    inject(net, FaultSchedule(
        [DelaySpike(time=0.0, duration=5.0, src="snd", dst="rcv", factor=4.0)]
    ))
    from repro.net.packet import Packet

    arrivals = []

    class Probe:
        def receive(self, packet):
            arrivals.append(net.sim.now)

    net.node("rcv").register_agent(9, Probe())
    net.sim.schedule(1.0, lambda: net.node("snd").send(
        Packet(kind="data", src="snd", dst="rcv", flow_id=9, seq=0,
               size_bytes=125)
    ))
    net.run(until=3.0)
    assert len(arrivals) == 1
    # 1 ms serialization + 4 x 10 ms propagation.
    assert arrivals[0] == pytest.approx(1.0 + 0.001 + 0.04)


def test_ack_loss_window_starves_then_clears():
    net = _two_node_net()
    inject(net, FaultSchedule(
        [AckLoss(time=1.0, duration=2.0, src="rcv", dst="snd", rate=1.0)]
    ))
    flow = BulkTransfer(net, "tcp-pr", "snd", "rcv", flow_id=1)
    net.run(until=10.0)
    reverse = net.link("rcv", "snd")
    assert reverse.fault_drops > 0  # ACKs died in the window
    assert flow.delivered_bytes() > 0  # and the flow still recovered


# ----------------------------------------------------------------------
# Path blackouts on both policy types
# ----------------------------------------------------------------------
def test_path_blackout_reroutes_epsilon_policy():
    net = MultipathMeshSpec(link_delay=0.01, seed=1).build().network
    policy = install_epsilon_routing(net, epsilon=0.0)
    monitor = FaultTimelineMonitor()
    inject(net, FaultSchedule(
        [PathBlackout(time=1.0, duration=2.0, origin="src", dst="dst",
                      path_index=0)]
    ), monitor=monitor)
    flow = BulkTransfer(net, "tcp-pr", "src", "dst", flow_id=1)

    net.run(until=2.0)
    assert policy.disabled_paths("dst") == [0]
    mid = flow.delivered_bytes()
    assert mid > 0  # survivors carried the traffic
    net.run(until=6.0)
    assert policy.disabled_paths("dst") == []
    assert flow.delivered_bytes() > mid
    assert [record.kind for record in monitor.records] == [
        "path-blackout", "path-blackout",
    ]
    assert len(monitor.between(0.0, 1.5)) == 1


def test_path_blackout_on_route_flapper():
    net = Network(seed=0)
    net.add_nodes("snd", "rcv", "a", "b")
    for mid in ("a", "b"):
        net.add_duplex_link("snd", mid, bandwidth=1e6, delay=0.01, queue=50)
        net.add_duplex_link(mid, "rcv", bandwidth=1e6, delay=0.01, queue=50)
    install_static_routes(net)
    flapper = RouteFlapper(net, "snd", dst="rcv", period=0.5).install()
    inject(net, FaultSchedule(
        [PathBlackout(time=1.0, duration=2.0, origin="snd", dst="rcv",
                      path_index=0)]
    ))
    flow = BulkTransfer(net, "tcp-pr", "snd", "rcv", flow_id=1)
    net.run(until=2.0)
    assert flapper.disabled_paths("rcv") == [0]
    assert flow.delivered_bytes() > 0
    net.run(until=6.0)
    assert flapper.disabled_paths("rcv") == []


def test_blackout_of_every_path_is_rejected():
    net = MultipathMeshSpec(num_paths=2, seed=0).build().network
    policy = install_epsilon_routing(net, epsilon=0.0)
    policy.disable_path("dst", 0)
    with pytest.raises(SimulationError):
        policy.disable_path("dst", 1)


# ----------------------------------------------------------------------
# Injector validation
# ----------------------------------------------------------------------
def test_injector_rejects_unknown_link_eagerly():
    net = _two_node_net()
    schedule = FaultSchedule([LinkDown(time=1.0, src="snd", dst="nowhere")])
    with pytest.raises(FaultTargetError):
        inject(net, schedule)


def test_injector_rejects_blackout_without_policy():
    net = _two_node_net()
    schedule = FaultSchedule(
        [PathBlackout(time=1.0, duration=1.0, origin="snd", dst="rcv")]
    )
    with pytest.raises(FaultTargetError):
        inject(net, schedule)


def test_injector_arm_is_single_shot():
    net = _two_node_net()
    injector = inject(net, FaultSchedule())
    with pytest.raises(SimulationError):
        injector.arm()


# ----------------------------------------------------------------------
# Simulator watchdog
# ----------------------------------------------------------------------
def test_livelock_detector_fires_on_zero_delay_loop():
    sim = Simulator(seed=0)

    def respawn():
        sim.schedule(sim.now, respawn)

    sim.schedule(0.0, respawn)
    with pytest.raises(LivelockError) as excinfo:
        sim.run(until=1.0, livelock_threshold=500)
    assert excinfo.value.stalled_events >= 500


def test_livelock_counter_resets_when_time_advances():
    sim = Simulator(seed=0)
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 2000:
            sim.schedule_in(1e-6, tick)

    sim.schedule(0.0, tick)
    sim.run(until=1.0, livelock_threshold=500)  # must not raise
    assert len(ticks) == 2000


def test_deadline_bounds_wall_clock():
    sim = Simulator(seed=0)

    def spin():
        sim.schedule_in(1e-9, spin)

    sim.schedule(0.0, spin)
    with pytest.raises(DeadlineExceededError):
        sim.run(until=1e9, deadline=0.2)


def test_watchdog_args_validated():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        sim.run(until=1.0, deadline=0.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0, livelock_threshold=0)


def test_peek_time_skips_cancelled_head():
    sim = Simulator(seed=0)
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek_time() == 2.0


# ----------------------------------------------------------------------
# Figure 7 end-to-end (tiny)
# ----------------------------------------------------------------------
def test_fig7_tiny_sweep_shape_and_determinism():
    spec = Fig7Spec(protocols=("tcp-pr",), outages=(0.0, 2.0),
                    duration=8.0, period=4.0, seed=2)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert serial.goodput_mbps == parallel.goodput_mbps
    clean, faulted = (serial.goodput_mbps["tcp-pr"][o] for o in (0.0, 2.0))
    assert clean > 0 and faulted > 0
    assert faulted < clean  # the outage must cost something
    assert serial.failures == {}
    assert "Figure 7" in format_fig7(serial)


def test_outage_schedule_zero_is_empty():
    assert len(outage_schedule(0.0, period=5.0, duration=30.0)) == 0
    assert len(outage_schedule(1.0, period=10.0, duration=30.0)) == 5 * 2
