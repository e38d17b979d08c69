"""Tests for the variant registry and application-layer sources."""

import importlib

import pytest

from repro.app.bulk import BulkTransfer
from repro.app.onoff import DatagramSink, OnOffSource
from repro.core.pr import PrConfig, TcpPrSender
from repro.net.network import Network, install_static_routes
from repro.tcp.base import TcpConfig
from repro.tcp.dsack_response import DsackSender
from repro.tcp.registry import available_variants, canonical_name, make_sender
from repro.tcp.sack import SackSender


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_available_variants_cover_figure_6():
    variants = available_variants()
    for name in ("tcp-pr", "tdfr", "dsack-nm", "inc-by-1", "inc-by-n", "ewma"):
        assert name in variants


def test_canonical_name_resolves_paper_labels():
    assert canonical_name("TCP-PR") == "tcp-pr"
    assert canonical_name("TD-FR") == "tdfr"
    assert canonical_name("Inc by 1") == "inc-by-1"
    assert canonical_name("Inc by N") == "inc-by-n"
    assert canonical_name("TCP-SACK") == "sack"


def test_canonical_name_rejects_unknown():
    with pytest.raises(ValueError):
        canonical_name("tcp-vegas")


def _simple_net():
    net = Network(seed=0)
    net.add_nodes("a", "b")
    net.add_duplex_link("a", "b", bandwidth=1e6, delay=0.01)
    install_static_routes(net)
    return net


def test_make_sender_builds_each_variant():
    for i, name in enumerate(available_variants()):
        net = _simple_net()
        sender = make_sender(name, net.sim, net.node("a"), 1, "b")
        assert sender.variant in (name, "dsack")


def test_make_sender_tcp_pr_type():
    net = _simple_net()
    sender = make_sender("tcp-pr", net.sim, net.node("a"), 1, "b")
    assert isinstance(sender, TcpPrSender)


def test_make_sender_policy_wiring():
    net = _simple_net()
    sender = make_sender("ewma", net.sim, net.node("a"), 1, "b")
    assert isinstance(sender, DsackSender)
    assert sender.policy.name == "ewma"


def test_make_sender_resolves_a_name_once_and_builds_fresh_policies(
    monkeypatch,
):
    from repro.tcp import registry

    imported = []

    def import_module(name):
        imported.append(name)
        return importlib.import_module(name)

    monkeypatch.setattr(registry, "import_module", import_module)
    monkeypatch.setattr(registry, "_RESOLVED", {})
    net = _simple_net()
    senders = [
        make_sender("Inc by 1", net.sim, net.node("a"), flow, "b")
        for flow in (1, 2, 3)
    ]
    assert imported == ["repro.tcp.dsack_response"]
    assert len({id(sender.policy) for sender in senders}) == 3


# ----------------------------------------------------------------------
# BulkTransfer
# ----------------------------------------------------------------------
def test_bulk_transfer_wires_flow():
    net = _simple_net()
    flow = BulkTransfer(net, "sack", "a", "b", flow_id=1)
    assert isinstance(flow.sender, SackSender)
    net.run(until=5.0)
    assert flow.delivered_segments > 100
    assert flow.delivered_bytes() == flow.delivered_segments * 1000
    assert flow.throughput_bps(5.0) == pytest.approx(
        flow.delivered_bytes() * 8 / 5.0
    )


def test_bulk_transfer_start_delay():
    net = _simple_net()
    flow = BulkTransfer(net, "sack", "a", "b", flow_id=1, start_at=2.0)
    net.run(until=1.9)
    assert flow.delivered_segments == 0
    net.run(until=4.0)
    assert flow.delivered_segments > 0


def test_bulk_transfer_validates_interval():
    net = _simple_net()
    flow = BulkTransfer(net, "sack", "a", "b", flow_id=1)
    with pytest.raises(ValueError):
        flow.throughput_bps(0.0)


def _watched_transfer(variant, total_segments):
    """A transfer over a 5-packet queue (slow start overflows it, so the
    retransmit paths run) whose sender logs every ACK it handles as
    ``(done before, done after, completion callbacks so far)``."""
    net = Network(seed=0)
    net.add_nodes("a", "b")
    net.add_duplex_link("a", "b", bandwidth=1e6, delay=0.01, queue=5)
    install_static_routes(net)
    flow = BulkTransfer(
        net, variant, "a", "b", flow_id=1,
        tcp_config=TcpConfig(total_segments=total_segments),
        pr_config=PrConfig(total_segments=total_segments),
    )
    sender = flow.sender
    calls = []
    sender.on_complete = lambda finished: calls.append(
        (finished is sender, finished.done)
    )
    acks = []
    receive = sender.receive

    def watched(packet):
        before = sender.done
        receive(packet)
        acks.append((before, sender.done, len(calls)))

    sender.receive = watched
    return net, flow, calls, acks


@pytest.mark.parametrize("variant", available_variants())
def test_completion_callback_fires_once_at_the_finishing_ack(variant):
    net, flow, calls, acks = _watched_transfer(variant, total_segments=200)
    net.run(until=60.0)
    assert flow.sender.done
    assert net.total_drops() > 0  # the loss-recovery paths ran
    assert calls == [(True, True)]
    finishing = [i for i, (before, after, _) in enumerate(acks)
                 if after and not before]
    assert len(finishing) == 1
    # No callback before that ACK, exactly one from it on.
    assert [fired for _, _, fired in acks] == [
        0 if i < finishing[0] else 1 for i in range(len(acks))
    ]
    assert flow.sender.on_complete is None


@pytest.mark.parametrize("variant", available_variants())
def test_completion_callback_never_fires_uncapped(variant):
    net, flow, calls, acks = _watched_transfer(variant, total_segments=None)
    net.run(until=3.0)
    assert len(acks) > 100
    assert not flow.sender.done
    assert calls == []


# ----------------------------------------------------------------------
# OnOffSource
# ----------------------------------------------------------------------
def test_cbr_rate_accuracy():
    net = _simple_net()
    source = OnOffSource(
        net.sim, net.node("a"), 7, "b", rate_bps=400_000, mean_off=0.0
    )
    sink = DatagramSink(net.sim, net.node("b"), 7)
    source.start(0.0)
    net.run(until=10.0)
    expected = 400_000 * 10 / 8000  # packets
    assert sink.packets_received == pytest.approx(expected, rel=0.05)


def test_onoff_produces_less_than_cbr():
    net = _simple_net()
    source = OnOffSource(
        net.sim, net.node("a"), 7, "b",
        rate_bps=400_000, mean_on=0.2, mean_off=0.2,
    )
    sink = DatagramSink(net.sim, net.node("b"), 7)
    source.start(0.0)
    net.run(until=10.0)
    full_rate = 400_000 * 10 / 8000
    assert 0 < sink.packets_received < 0.8 * full_rate


def test_onoff_validates_rate():
    net = _simple_net()
    with pytest.raises(ValueError):
        OnOffSource(net.sim, net.node("a"), 7, "b", rate_bps=0)


def test_onoff_validates_periods():
    net = _simple_net()
    with pytest.raises(ValueError):
        OnOffSource(net.sim, net.node("a"), 7, "b", rate_bps=1e5, mean_on=0.0)
    with pytest.raises(ValueError):
        OnOffSource(net.sim, net.node("a"), 8, "b", rate_bps=1e5, mean_off=-1.0)


def test_onoff_start_idempotent():
    net = _simple_net()
    source = OnOffSource(net.sim, net.node("a"), 7, "b", rate_bps=100_000)
    DatagramSink(net.sim, net.node("b"), 7)
    source.start(0.0)
    source.start(0.0)
    net.run(until=1.0)
    assert source.packets_sent > 0
