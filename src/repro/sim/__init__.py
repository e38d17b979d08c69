"""Discrete-event simulation engine (substitute for ns-2's scheduler).

The engine is a classic calendar built on a binary heap.  Components
schedule callbacks at absolute simulation times; the engine dispatches them
in time order (FIFO among equal timestamps, via a monotonically increasing
sequence number).  Event handles support O(1) cancellation.

Example:
    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(1.5, lambda: fired.append(sim.now))
    <repro.sim.events.EventHandle ...>
    >>> sim.run(until=10.0)
    >>> fired
    [1.5]
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.errors import ScheduleInPastError, SimulationError
    from repro.sim.events import EventHandle
    from repro.sim.profile import GroupStats, SimStats, group_label
    from repro.sim.rng import RngRegistry, derive_child_seed

#: Public name -> the module that defines it, imported on first access
#: (PEP 562): ``import repro.sim`` loads no submodule.
_EXPORTS = {
    "EventHandle": "repro.sim.events",
    "GroupStats": "repro.sim.profile",
    "RngRegistry": "repro.sim.rng",
    "ScheduleInPastError": "repro.sim.errors",
    "SimStats": "repro.sim.profile",
    "SimulationError": "repro.sim.errors",
    "Simulator": "repro.sim.engine",
    "derive_child_seed": "repro.sim.rng",
    "group_label": "repro.sim.profile",
}

__all__ = [
    "EventHandle",
    "GroupStats",
    "RngRegistry",
    "SimStats",
    "derive_child_seed",
    "group_label",
    "ScheduleInPastError",
    "SimulationError",
    "Simulator",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
