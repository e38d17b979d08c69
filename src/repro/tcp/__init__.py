"""TCP senders and receivers.

Baselines (Section 4/5 of the paper):

* :class:`RenoSender` — classic Reno fast retransmit / fast recovery.
* :class:`NewRenoSender` — partial-ACK handling (RFC 2582).
* :class:`SackSender` — SACK loss recovery with a scoreboard and pipe
  (RFC 2018 + RFC 3517 style), the paper's main fairness baseline.

Reordering-robust baselines from Blanton & Allman (Figure 6):

* :class:`TdfrSender` — time-delayed fast recovery (Paxson).
* :class:`DsackSender` with a :class:`DupthreshPolicy` — DSACK-based
  spurious-retransmit undo with dupthresh mitigation: no mitigation
  (DSACK-NM), increment-by-one, increment-to-average ("Inc by N"), EWMA.

Extensions: :class:`EifelSender` (timestamp-based undo) and
:class:`DoorSender` (TCP-DOOR-style out-of-order response).

The receiver (:class:`TcpReceiver`) is shared by every sender, including
TCP-PR: cumulative ACKs, optional SACK blocks, optional DSACK reporting.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.tcp.base import TcpConfig, TcpSenderBase
    from repro.tcp.door import DoorSender
    from repro.tcp.dsack_response import (
        DsackSender,
        DupthreshPolicy,
        EwmaPolicy,
        IncrementByOnePolicy,
        IncrementToAveragePolicy,
        NoMitigationPolicy,
    )
    from repro.tcp.eifel import EifelSender
    from repro.tcp.newreno import NewRenoSender
    from repro.tcp.receiver import TcpReceiver
    from repro.tcp.registry import available_variants, make_sender
    from repro.tcp.reno import RenoSender
    from repro.tcp.rrtcp import PercentilePolicy, RrTcpSender
    from repro.tcp.rto import RtoEstimator
    from repro.tcp.sack import SackSender
    from repro.tcp.scoreboard import Scoreboard
    from repro.tcp.tdfr import TdfrSender

#: Public name -> the module that defines it, imported on first access
#: (PEP 562): ``import repro.tcp`` loads no submodule.
_EXPORTS = {
    "DoorSender": "repro.tcp.door",
    "DsackSender": "repro.tcp.dsack_response",
    "DupthreshPolicy": "repro.tcp.dsack_response",
    "EifelSender": "repro.tcp.eifel",
    "EwmaPolicy": "repro.tcp.dsack_response",
    "IncrementByOnePolicy": "repro.tcp.dsack_response",
    "IncrementToAveragePolicy": "repro.tcp.dsack_response",
    "NewRenoSender": "repro.tcp.newreno",
    "NoMitigationPolicy": "repro.tcp.dsack_response",
    "PercentilePolicy": "repro.tcp.rrtcp",
    "RenoSender": "repro.tcp.reno",
    "RrTcpSender": "repro.tcp.rrtcp",
    "RtoEstimator": "repro.tcp.rto",
    "SackSender": "repro.tcp.sack",
    "Scoreboard": "repro.tcp.scoreboard",
    "TcpConfig": "repro.tcp.base",
    "TcpReceiver": "repro.tcp.receiver",
    "TcpSenderBase": "repro.tcp.base",
    "TdfrSender": "repro.tcp.tdfr",
    "available_variants": "repro.tcp.registry",
    "make_sender": "repro.tcp.registry",
}

__all__ = [
    "DoorSender",
    "DsackSender",
    "DupthreshPolicy",
    "EifelSender",
    "EwmaPolicy",
    "IncrementByOnePolicy",
    "IncrementToAveragePolicy",
    "NewRenoSender",
    "NoMitigationPolicy",
    "PercentilePolicy",
    "RenoSender",
    "RrTcpSender",
    "RtoEstimator",
    "SackSender",
    "Scoreboard",
    "TcpConfig",
    "TcpReceiver",
    "TcpSenderBase",
    "TdfrSender",
    "available_variants",
    "make_sender",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
