"""Name-based construction of TCP sender variants.

The experiment harness refers to protocols by the names used in the
paper's figures ("TCP-PR", "TD-FR", "DSACK-NM", "Inc by 1", "Inc by N",
"EWMA") as well as plain engineering names; :func:`make_sender` maps
either spelling to a configured sender instance.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.pr import PrConfig
    from repro.net.node import Node
    from repro.sim.engine import Simulator
    from repro.tcp.base import TcpConfig

#: Canonical variant name -> (``"module:SenderClass"``, the dupthresh
#: policy class in that module or None).  Nothing here imports a sender:
#: :func:`make_sender` imports one the first time its name is built, so
#: listing the variants loads no sender module.
_VARIANTS: Dict[str, Tuple[str, Optional[str]]] = {
    "tcp-pr": ("repro.core.pr:TcpPrSender", None),
    "reno": ("repro.tcp.reno:RenoSender", None),
    "newreno": ("repro.tcp.newreno:NewRenoSender", None),
    "sack": ("repro.tcp.sack:SackSender", None),
    "tdfr": ("repro.tcp.tdfr:TdfrSender", None),
    "dsack-nm": ("repro.tcp.dsack_response:DsackSender", "NoMitigationPolicy"),
    "inc-by-1": ("repro.tcp.dsack_response:DsackSender", "IncrementByOnePolicy"),
    "inc-by-n": (
        "repro.tcp.dsack_response:DsackSender",
        "IncrementToAveragePolicy",
    ),
    "ewma": ("repro.tcp.dsack_response:DsackSender", "EwmaPolicy"),
    "eifel": ("repro.tcp.eifel:EifelSender", None),
    "door": ("repro.tcp.door:DoorSender", None),
    "rr-tcp": ("repro.tcp.rrtcp:RrTcpSender", None),
}

#: A resolved variant: (sender class, policy class or None, takes a
#: :class:`~repro.core.pr.PrConfig` rather than a ``TcpConfig``).
_Resolved = Tuple[Callable[..., Any], Optional[Callable[[], Any]], bool]

#: Name exactly as passed to :func:`make_sender` -> its resolved
#: variant: a fat-tree scenario builds tens of thousands of senders and
#: must not re-resolve the name for each.
_RESOLVED: Dict[str, _Resolved] = {}

#: Figure-label spellings accepted as aliases.
_ALIASES: Dict[str, str] = {
    "tcp-pr": "tcp-pr",
    "tcppr": "tcp-pr",
    "pr": "tcp-pr",
    "tcp-sack": "sack",
    "tcp-reno": "reno",
    "tcp-newreno": "newreno",
    "td-fr": "tdfr",
    "dsack": "dsack-nm",
    "inc by 1": "inc-by-1",
    "inc by n": "inc-by-n",
    "rrtcp": "rr-tcp",
    "rr": "rr-tcp",
}


def canonical_name(name: str) -> str:
    """Resolve aliases and figure labels to a canonical variant name."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _VARIANTS:
        raise ValueError(
            f"unknown TCP variant {name!r}; available: {available_variants()}"
        )
    return key


def available_variants() -> list[str]:
    """All accepted canonical variant names."""
    return sorted(_VARIANTS)


def _resolve(name: str) -> _Resolved:
    """Import ``name``'s sender (and policy) class, once per name."""
    key = canonical_name(name)
    path, policy_name = _VARIANTS[key]
    module_name, _, class_name = path.partition(":")
    module = import_module(module_name)
    policy = getattr(module, policy_name) if policy_name is not None else None
    resolved = _RESOLVED[name] = (
        getattr(module, class_name), policy, key == "tcp-pr"
    )
    return resolved


def make_sender(
    name: str,
    sim: "Simulator",
    node: "Node",
    flow_id: int,
    peer: str,
    tcp_config: Optional["TcpConfig"] = None,
    pr_config: Optional["PrConfig"] = None,
):
    """Build a sender of the named variant attached to ``node``.

    Args:
        name: Variant name or figure-label alias (case-insensitive).
        tcp_config: Configuration for the Reno-family variants.
        pr_config: Configuration for TCP-PR.

    Returns:
        A :class:`~repro.tcp.base.TcpSenderBase` or
        :class:`~repro.core.pr.TcpPrSender` instance.
    """
    resolved = _RESOLVED.get(name)
    if resolved is None:
        resolved = _resolve(name)
    cls, policy, takes_pr_config = resolved
    if policy is not None:
        return cls(sim, node, flow_id, peer, tcp_config, policy=policy())
    config = pr_config if takes_pr_config else tcp_config
    return cls(sim, node, flow_id, peer, config)
