"""Fault injection: declarative schedules of network failures.

The simulator's loss models express *statistical* damage; this package
expresses *structural* damage — scheduled link outages, multipath
blackouts, delay spikes, and reverse-path loss windows — so experiments
can script the route-flap and extreme-loss regimes the paper reasons
about and watch each TCP variant degrade (or not).

* :mod:`repro.faults.schedule` — :class:`FaultSchedule` and the
  :class:`FaultEvent` family (:class:`LinkDown`, :class:`LinkUp`,
  :class:`PathBlackout`, :class:`DelaySpike`, :class:`AckLoss`),
  JSON-round-trippable plain data;
* :mod:`repro.faults.injector` — :class:`Injector`/:func:`inject`,
  arming a schedule on a live :class:`~repro.net.network.Network`.

See ``docs/FAULTS.md`` for semantics and examples.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.faults.injector import FaultTargetError, Injector, inject
    from repro.faults.schedule import (
        AckLoss,
        DelaySpike,
        FaultEvent,
        FaultSchedule,
        FaultScheduleError,
        LinkDown,
        LinkUp,
        PathBlackout,
        fault_event,
        registered_event_kinds,
    )

#: Public name -> the module that defines it, imported on first access
#: (PEP 562): ``import repro.faults`` loads no submodule, so planning a
#: schedule never imports the injector (or the network it arms).
_EXPORTS = {
    "AckLoss": "repro.faults.schedule",
    "DelaySpike": "repro.faults.schedule",
    "FaultEvent": "repro.faults.schedule",
    "FaultSchedule": "repro.faults.schedule",
    "FaultScheduleError": "repro.faults.schedule",
    "FaultTargetError": "repro.faults.injector",
    "Injector": "repro.faults.injector",
    "LinkDown": "repro.faults.schedule",
    "LinkUp": "repro.faults.schedule",
    "PathBlackout": "repro.faults.schedule",
    "fault_event": "repro.faults.schedule",
    "inject": "repro.faults.injector",
    "registered_event_kinds": "repro.faults.schedule",
}

__all__ = [
    "AckLoss",
    "DelaySpike",
    "FaultEvent",
    "FaultSchedule",
    "FaultScheduleError",
    "FaultTargetError",
    "Injector",
    "LinkDown",
    "LinkUp",
    "PathBlackout",
    "fault_event",
    "inject",
    "registered_event_kinds",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
