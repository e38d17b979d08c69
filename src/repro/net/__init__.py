"""Packet-level network substrate: packets, queues, links, nodes.

This package replaces ns-2's node/link/queue models.  A :class:`Network`
is a set of named :class:`Node` objects joined by unidirectional
:class:`Link` objects (use :meth:`Network.add_duplex_link` for the common
case).  Each link has a bandwidth, a propagation delay, and a finite
DropTail queue; packets that arrive while the queue is full are dropped,
which is the paper's (and ns-2's) loss model.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.net.delays import (
        BimodalDelay,
        DelayModel,
        FixedDelay,
        UniformJitterDelay,
    )
    from repro.net.network import Network
    from repro.net.node import Agent, Node
    from repro.net.link import Link
    from repro.net.lossgen import (
        BernoulliLoss,
        DeterministicLoss,
        GilbertElliottLoss,
        LossModel,
        NoLoss,
    )
    from repro.net.packet import ACK_SIZE_BYTES, DATA_SIZE_BYTES, Packet
    from repro.net.queues import DropTailQueue, Queue, REDQueue

#: Public name -> the module that defines it, imported on first access
#: (PEP 562): ``import repro.net`` loads no submodule.
_EXPORTS = {
    "ACK_SIZE_BYTES": "repro.net.packet",
    "Agent": "repro.net.node",
    "BernoulliLoss": "repro.net.lossgen",
    "BimodalDelay": "repro.net.delays",
    "DATA_SIZE_BYTES": "repro.net.packet",
    "DelayModel": "repro.net.delays",
    "DeterministicLoss": "repro.net.lossgen",
    "DropTailQueue": "repro.net.queues",
    "FixedDelay": "repro.net.delays",
    "GilbertElliottLoss": "repro.net.lossgen",
    "Link": "repro.net.link",
    "LossModel": "repro.net.lossgen",
    "Network": "repro.net.network",
    "NoLoss": "repro.net.lossgen",
    "Node": "repro.net.node",
    "Packet": "repro.net.packet",
    "Queue": "repro.net.queues",
    "REDQueue": "repro.net.queues",
    "UniformJitterDelay": "repro.net.delays",
}

__all__ = [
    "ACK_SIZE_BYTES",
    "Agent",
    "BernoulliLoss",
    "BimodalDelay",
    "DATA_SIZE_BYTES",
    "DelayModel",
    "DeterministicLoss",
    "DropTailQueue",
    "FixedDelay",
    "GilbertElliottLoss",
    "Link",
    "LossModel",
    "Network",
    "NoLoss",
    "Node",
    "Packet",
    "Queue",
    "REDQueue",
    "UniformJitterDelay",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
