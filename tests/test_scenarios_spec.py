"""Tests for ScenarioSpec: JSON round-trips and seed derivation."""

import json

import pytest

from repro.scenarios import SCENARIO_SCHEMA, ScenarioSpec, WorkloadSpec
from repro.sim.rng import derive_child_seed
from repro.topologies import (
    DumbbellSpec,
    FatTreeSpec,
    ParkingLotSpec,
    WanMeshSpec,
)


def _scenario(**overrides):
    params = dict(
        topology=FatTreeSpec(k=4),
        workload=WorkloadSpec(arrival_rate=5.0, max_flows=20),
        duration=10.0,
        seed=3,
        name="test",
    )
    params.update(overrides)
    return ScenarioSpec(**params)


@pytest.mark.parametrize(
    "topology",
    [DumbbellSpec(num_pairs=3), ParkingLotSpec(), FatTreeSpec(k=4, seed=2),
     WanMeshSpec(sites=5)],
)
def test_scenario_json_round_trip(topology):
    scenario = _scenario(topology=topology)
    data = json.loads(json.dumps(scenario.to_jsonable()))
    assert data["schema"] == SCENARIO_SCHEMA
    assert ScenarioSpec.from_jsonable(data) == scenario


def test_scenario_save_load(tmp_path):
    scenario = _scenario()
    path = scenario.save(tmp_path / "spec.json")
    assert ScenarioSpec.load(path) == scenario


def test_scenario_rejects_unknown_schema():
    data = _scenario().to_jsonable()
    data["schema"] = "repro.scenario/v999"
    with pytest.raises(ValueError):
        ScenarioSpec.from_jsonable(data)


def test_scenario_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        _scenario(duration=0.0)


def test_workload_seed_is_derived_from_scenario_seed():
    scenario = _scenario(seed=42)
    assert scenario.workload_seed() == derive_child_seed(
        42, "scenario/workload"
    )
    assert scenario.with_seed(43).workload_seed() != scenario.workload_seed()


def test_flows_use_topology_endpoints():
    scenario = _scenario(topology=DumbbellSpec(num_pairs=2))
    flows = list(scenario.flows())
    assert flows
    assert scenario.flow_count() == len(flows)
    senders, receivers = scenario.topology.endpoints()
    for flow in flows:
        assert flow.src in senders
        assert flow.dst in receivers


def test_with_seed_changes_population():
    scenario = _scenario(topology=DumbbellSpec(num_pairs=2))
    a = [flow.to_jsonable() for flow in scenario.flows()]
    b = [flow.to_jsonable() for flow in scenario.with_seed(99).flows()]
    assert a != b
