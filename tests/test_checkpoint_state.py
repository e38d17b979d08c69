"""Snapshot round trips through the one API, ``save_checkpoint`` /
``Simulator.resume`` (property-based).

A checkpoint saves the whole simulator graph, so anything it fails to
capture shows up here as a restored flow that differs from the live one
-- right after the restore, or once both run on.  Two things also ride
the container in sections of their own and are checked on their own:
the RNG registry (``rng``) and the process-global packet uid counter
(``globals``).
"""

import dataclasses
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.app.bulk import BulkTransfer
from repro.checkpoint import codec
from repro.net import packet as packet_mod
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.topologies.dumbbell import DumbbellSpec

_SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _scenario(variant, seed, duration):
    net = DumbbellSpec(num_pairs=1, seed=seed).build().network
    flow = BulkTransfer(net, variant, "s0", "d0", flow_id=1)
    net.sim.register_component("flow", flow)
    net.run(until=duration)
    return net


def _state(sim):
    """What a restored run must match: the engine counters and the
    flow's sender and receiver."""
    flow = sim.component("flow")
    return (
        sim.now,
        sim.event_seq,
        sim.pending_events,
        dataclasses.asdict(flow.sender.stats),
        flow.sender.cwnd,
        flow.sender.snd_nxt,
        flow.receiver.delivered,
        flow.receiver.rcv_nxt,
    )


def _save_and_resume(sim):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sim.ckpt")
        sim.save_checkpoint(path)
        return Simulator.resume(path)


# ----------------------------------------------------------------------
# Whole-simulator round trips over real figure-style scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "variant", ["tcp-pr", "tdfr", "newreno", "dsack-nm", "ewma"]
)
@_SETTINGS
@given(seed=st.integers(0, 2**16), duration=st.floats(0.25, 1.5))
def test_snapshot_restore_is_identity(variant, seed, duration):
    sim = _scenario(variant, seed, duration).sim
    restored = _save_and_resume(sim)
    assert _state(restored) == _state(sim)
    # ... and stays identical when both run on.
    for live in (sim, restored):
        live.run(until=duration + 0.5)
    assert _state(restored) == _state(sim)


@pytest.mark.parametrize("variant", ["tcp-pr", "tdfr"])
@_SETTINGS
@given(seed=st.integers(0, 2**16))
def test_restore_rolls_back_later_mutation(variant, seed):
    net = _scenario(variant, seed, duration=0.75)
    taken = _state(net.sim)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sim.ckpt")
        net.sim.save_checkpoint(path)
        net.run(until=1.5)  # mutate every component past the snapshot point
        assert _state(net.sim) != taken
        assert _state(Simulator.resume(path)) == taken


# ----------------------------------------------------------------------
# RNG registry streams
# ----------------------------------------------------------------------
@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), draws=st.integers(0, 40))
def test_rng_registry_roundtrip_replays_identically(seed, draws):
    registry = Simulator(seed=seed).rng
    x, y = registry.stream("x"), registry.stream("y")
    for _ in range(draws):
        x.random()
        y.random()
    # Exactly what save_checkpoint writes to the ``rng`` section.
    snap = codec.encode(registry)
    expected = [x.random() for _ in range(5)] + [y.random() for _ in range(5)]
    restored = codec.decode(snap)
    assert restored.names() == ["x", "y"]
    x2, y2 = restored.stream("x"), restored.stream("y")
    replayed = [x2.random() for _ in range(5)] + [y2.random() for _ in range(5)]
    assert replayed == expected


def test_rng_registry_restore_drops_unknown_streams():
    registry = Simulator(seed=0).rng
    registry.stream("keep")
    snap = codec.encode(registry)
    registry.stream("transient")  # created after the snapshot
    assert codec.decode(snap).names() == ["keep"]


# ----------------------------------------------------------------------
# The packet uid global
# ----------------------------------------------------------------------
@given(n=st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_uid_counter_peek_and_reset(n):
    before = packet_mod.peek_next_uid()
    try:
        packet_mod.reset_uid_counter(n)
        assert packet_mod.peek_next_uid() == n
        made = Packet("data", src="a", dst="b", flow_id=1, seq=0)
        assert made.uid == n
        assert packet_mod.peek_next_uid() == n + 1
    finally:
        packet_mod.reset_uid_counter(before)


def test_peek_does_not_consume():
    before = packet_mod.peek_next_uid()
    assert packet_mod.peek_next_uid() == before
    assert Packet("data", src="a", dst="b", flow_id=1, seq=0).uid == before
