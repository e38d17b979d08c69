"""TCP-PR — the paper's primary contribution.

:class:`TcpPrSender` detects losses exclusively with per-packet timers
(never duplicate ACKs), making it immune to persistent packet reordering
of both data and acknowledgments.  See Section 3 of the paper and the
module docs of :mod:`repro.core.pr` for the full algorithm.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.estimator import MaxRttEstimator, newton_fractional_root
    from repro.core.pr import PrConfig, TcpPrSender

#: Public name -> the module that defines it, imported on first access
#: (PEP 562): ``import repro.core`` loads no submodule.
_EXPORTS = {
    "MaxRttEstimator": "repro.core.estimator",
    "PrConfig": "repro.core.pr",
    "TcpPrSender": "repro.core.pr",
    "newton_fractional_root": "repro.core.estimator",
}

__all__ = [
    "MaxRttEstimator",
    "PrConfig",
    "TcpPrSender",
    "newton_fractional_root",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
