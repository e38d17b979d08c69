"""The declarative :class:`ScenarioSpec`: topology × workload × horizon.

One JSON-round-trippable object describes an entire experiment
population: which network to build (any registered
:class:`~repro.topologies.base.TopologySpec` kind), which flows to run
over it (a :class:`~repro.scenarios.workload.WorkloadSpec`), for how
long, under which master seed.  Everything downstream — figure
experiments, the sharded scale-out executor, traces — speaks this one
vocabulary.

Seed derivation (see ``docs/SCENARIOS.md`` for the full table): the
flow population is drawn from ``derive_child_seed(seed,
"scenario/workload")`` — a function of the *scenario* seed only, so
every shard of a sharded run agrees on the identical population — while
each shard's simulator runs under its own
``derive_child_seed(seed, "scale/shard/{i}")``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, Union

from repro.scenarios.workload import (
    FlowSpec,
    WorkloadSpec,
    count_flows,
    generate_flows,
)
from repro.sim.rng import derive_child_seed
from repro.topologies.base import (
    TopologySpec,
    topology_from_jsonable,
    topology_to_jsonable,
)

#: Schema identifier written into saved scenario files.
SCENARIO_SCHEMA = "repro.scenario/v1"

#: The stream label the flow population is derived under.
WORKLOAD_SEED_LABEL = "scenario/workload"


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, self-describing experiment population (pure data)."""

    topology: TopologySpec
    workload: WorkloadSpec
    duration: float = 30.0
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if (
            self.workload.arrival == "fixed"
            and self.workload.start_stagger > self.duration
        ):
            raise ValueError(
                f"workload start_stagger ({self.workload.start_stagger}) "
                f"exceeds the scenario duration ({self.duration}): flows "
                f"starting past the horizon would never run"
            )

    # ------------------------------------------------------------------
    # The flow population
    # ------------------------------------------------------------------
    def workload_seed(self) -> int:
        """The derived seed the flow population is generated under."""
        return derive_child_seed(self.seed, WORKLOAD_SEED_LABEL)

    def flows(self) -> Iterator[FlowSpec]:
        """Lazily yield the full deterministic flow population."""
        senders, receivers = self.topology.endpoints()
        return generate_flows(
            self.workload,
            senders,
            receivers,
            self.duration,
            self.workload_seed(),
        )

    def flow_count(self) -> int:
        """Exact population size (walks the generator once)."""
        senders, receivers = self.topology.endpoints()
        return count_flows(
            self.workload,
            senders,
            receivers,
            self.duration,
            self.workload_seed(),
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # JSON round-tripping
    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
            "topology": topology_to_jsonable(self.topology),
            "workload": self.workload.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        schema = data.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ValueError(
                f"unsupported scenario schema {schema!r} "
                f"(expected {SCENARIO_SCHEMA!r})"
            )
        return cls(
            topology=topology_from_jsonable(data["topology"]),
            workload=WorkloadSpec.from_jsonable(data["workload"]),
            duration=float(data.get("duration", 30.0)),
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "scenario")),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as indented JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_jsonable(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Read a spec saved by :meth:`save`."""
        return cls.from_jsonable(json.loads(Path(path).read_text()))
