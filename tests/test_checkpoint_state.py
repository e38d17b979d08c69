"""StatefulComponent snapshot/restore round trips (property-based).

A checkpoint is only as good as each component's snapshot: anything a
class forgets to capture (or captures but cannot restore) surfaces here
as a round-trip mismatch.  Equality is compared on the *pickled bytes*
of the snapshots — several snapshotted objects (``Packet``, monitors)
define no ``__eq__``, and byte equality is exactly the bit-identicality
contract resume promises.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.app.bulk import BulkTransfer
from repro.checkpoint import StatefulComponent, snapshot_object, restore_object
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
    BulkTransfer(net, variant, "s0", "d0", flow_id=1)
    net.run(until=duration)
    return net


def _stateful_components(sim):
    components = {
        name: comp
        for name, comp in sim.components.items()
        if isinstance(comp, StatefulComponent)
    }
    assert components, "scenario registered no stateful components"
    return components


# ----------------------------------------------------------------------
# Per-component round trips over real figure-style scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "variant", ["tcp-pr", "tdfr", "newreno", "dsack-nm", "ewma"]
)
@_SETTINGS
@given(seed=st.integers(0, 2**16), duration=st.floats(0.25, 1.5))
def test_snapshot_restore_is_identity(variant, seed, duration):
    sim = _scenario(variant, seed, duration).sim
    for name, comp in sorted(_stateful_components(sim).items()):
        before = comp.snapshot_state()
        comp.restore_state(before)
        after = comp.snapshot_state()
        assert codec.encode(before) == codec.encode(after), name


@pytest.mark.parametrize("variant", ["tcp-pr", "tdfr"])
@_SETTINGS
@given(seed=st.integers(0, 2**16))
def test_restore_rolls_back_later_mutation(variant, seed):
    net = _scenario(variant, seed, duration=0.75)
    sim = net.sim
    components = _stateful_components(sim)
    taken = {
        name: codec.encode(comp.snapshot_state())
        for name, comp in sorted(components.items())
    }
    net.run(until=1.5)  # mutate every component past the snapshot point
    for name, comp in sorted(components.items()):
        comp.restore_state(codec.decode(taken[name]))
        assert codec.encode(comp.snapshot_state()) == taken[name], name


def test_snapshot_excludes_wiring():
    sim = _scenario("tcp-pr", seed=3, duration=0.5).sim
    for name, comp in sorted(_stateful_components(sim).items()):
        state = comp.snapshot_state()
        excluded = getattr(type(comp), "_SNAPSHOT_EXCLUDE", frozenset())
        assert not excluded & set(state), name
        assert "sim" not in state, name


# ----------------------------------------------------------------------
# The generic object walker
# ----------------------------------------------------------------------
class _Slotted:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = [1, 2]
        self.b = {"k": 3}


def test_snapshot_object_deepcopies():
    obj = _Slotted()
    state = snapshot_object(obj, exclude=frozenset())
    obj.a.append(99)
    assert state["a"] == [1, 2]
    restore_object(obj, state)
    assert obj.a == [1, 2] and obj.b == {"k": 3}


def test_snapshot_object_respects_exclude():
    obj = _Slotted()
    state = snapshot_object(obj, exclude=frozenset({"b"}))
    assert set(state) == {"a"}
    obj.a = None
    restore_object(obj, state)
    assert obj.a == [1, 2] and obj.b == {"k": 3}


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
    snap = registry.snapshot_state()
    expected = [x.random() for _ in range(5)] + [y.random() for _ in range(5)]
    x.random()  # drift further so a no-op restore would be caught
    registry.restore_state(snap)
    x2, y2 = registry.stream("x"), registry.stream("y")
    replayed = [x2.random() for _ in range(5)] + [y2.random() for _ in range(5)]
    assert replayed == expected


def test_rng_registry_restore_drops_unknown_streams():
    registry = Simulator(seed=0).rng
    registry.stream("keep")
    snap = registry.snapshot_state()
    registry.stream("transient")
    registry.restore_state(snap)
    assert sorted(registry.snapshot_state()["streams"]) == ["keep"]


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
