"""Reproduction of "TCP-PR: TCP for Persistent Packet Reordering"
(Bohacek, Hespanha, Lee, Lim, Obraczka — ICDCS 2003).

The package bundles:

* a packet-level discrete-event network simulator (:mod:`repro.sim`,
  :mod:`repro.net`) standing in for ns-2;
* the ε-parameterized multipath routing family and route-flap models
  that generate persistent reordering (:mod:`repro.routing`);
* TCP-PR itself (:mod:`repro.core`) plus every baseline the paper
  compares against — Reno, NewReno, SACK, TD-FR, and the DSACK-based
  dupthresh-mitigation variants (:mod:`repro.tcp`);
* topology builders, traffic sources, metrics, the unified
  observability layer, and the experiment harness that regenerates each
  of the paper's figures (:mod:`repro.topologies`, :mod:`repro.app`,
  :mod:`repro.analysis`, :mod:`repro.obs`, :mod:`repro.experiments`).

Quickstart::

    from repro import BulkTransfer, Network, install_shortest_path_routes

    net = Network(seed=1)
    net.add_nodes("a", "b")
    net.add_duplex_link("a", "b", bandwidth=10e6, delay=0.01)
    install_shortest_path_routes(net)
    flow = BulkTransfer(net, "tcp-pr", "a", "b", flow_id=1)
    net.run(until=10.0)
    print(flow.throughput_bps(10.0) / 1e6, "Mbps")
"""

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

#: Public name -> the subpackage that defines it.  Resolved on first
#: access (PEP 562), so ``import repro`` itself loads no subpackage and
#: a command pays only for the layers it touches.
_EXPORTS = {
    "BulkTransfer": "repro.app",
    "CwndMonitor": "repro.obs",
    "DumbbellSpec": "repro.topologies",
    "EpsilonMultipathPolicy": "repro.routing",
    "FatTreeSpec": "repro.topologies",
    "FlowThroughputMonitor": "repro.obs",
    "Instrumentation": "repro.obs",
    "MaxRttEstimator": "repro.core",
    "MetricsRegistry": "repro.obs",
    "MultipathMeshSpec": "repro.topologies",
    "Network": "repro.net",
    "OnOffSource": "repro.app",
    "Packet": "repro.net",
    "PacketTracer": "repro.obs",
    "ParkingLotSpec": "repro.topologies",
    "PrConfig": "repro.core",
    "QueueMonitor": "repro.obs",
    "RouteFlapper": "repro.routing",
    "Simulator": "repro.sim",
    "TcpConfig": "repro.tcp",
    "TcpPrSender": "repro.core",
    "TcpReceiver": "repro.tcp",
    "Topology": "repro.topologies",
    "TopologySpec": "repro.topologies",
    "WanMeshSpec": "repro.topologies",
    "available_variants": "repro.tcp",
    "coefficient_of_variation": "repro.analysis",
    "discover_paths": "repro.routing",
    "install_shortest_path_routes": "repro.routing",
    "jain_index": "repro.analysis",
    "make_sender": "repro.tcp",
    "mean_normalized_throughput": "repro.analysis",
    "normalized_throughputs": "repro.analysis",
    "observe": "repro.obs",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
