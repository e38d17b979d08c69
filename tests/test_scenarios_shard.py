"""Tests for sharded scenario execution: serial-vs-sharded equivalence,
partition invariants, and the stream (one writer per file)."""

import json

import pytest

from repro.scenarios import (
    ScenarioSpec,
    ShardPlan,
    WorkloadSpec,
    run_scale,
    run_shard_cell,
)
from repro.scenarios.shard import _ShardDriver, build_shard_network
from repro.topologies import DumbbellSpec, FatTreeSpec, WanMeshSpec


def _pinned_scenario(seed=7):
    """A small deterministic scenario: ~28 short flows over 20 s."""
    return ScenarioSpec(
        topology=DumbbellSpec(num_pairs=4, seed=seed),
        workload=WorkloadSpec(
            arrival="poisson",
            arrival_rate=2.0,
            size="fixed",
            mean_size_segments=30.0,
            variant_mix=(("tcp-pr", 1.0), ("sack", 1.0)),
        ),
        duration=20.0,
        seed=seed,
        name="pinned",
    )


def _flow_records(path):
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    return sorted(
        (record["flow_id"], record["variant"], record["src"], record["dst"],
         record["size_segments"], record["delivered_segments"],
         record["completed"], record["finish_time"])
        for record in records
        if record.get("record") == "flow"
    )


def _flow_lines(path):
    """The stream's raw ``flow`` lines, in file order."""
    return [
        line for line in path.read_text().splitlines()
        if '"record": "flow"' in line
    ]


def _report_key(report):
    data = report.to_jsonable()
    data.pop("max_rss_kb")  # the only legitimately nondeterministic field
    return data


def test_sharded_run_is_permutation_of_serial(tmp_path):
    """The pinned acceptance scenario: a sharded run equals the serial
    run modulo shard ordering — same flows, same per-flow outcomes."""
    scenario = _pinned_scenario()
    serial_path = tmp_path / "serial.jsonl"
    sharded_path = tmp_path / "sharded.jsonl"
    serial = run_scale(
        ShardPlan(scenario=scenario, num_shards=1,
                  stream_path=str(serial_path)),
        jobs=1,
    )
    sharded = run_scale(
        ShardPlan(scenario=scenario, num_shards=3,
                  stream_path=str(sharded_path)),
        jobs=3,
    )
    serial_flows = _flow_records(serial_path)
    sharded_flows = _flow_records(sharded_path)
    assert len(serial_flows) == serial.flows > 10
    # Identity, sizing, and start-independent outcomes all agree.
    assert [f[:5] for f in serial_flows] == [f[:5] for f in sharded_flows]
    assert serial.flows == sharded.flows
    assert serial.delivered_segments == sharded.delivered_segments
    assert serial.per_variant == sharded.per_variant


def test_sharded_serial_and_parallel_bit_identical(tmp_path):
    """For a fixed shard count, jobs=1 and jobs=N are bit-identical
    (the executor's core guarantee, inherited by scenarios)."""
    scenario = _pinned_scenario()
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    report_a = run_scale(
        ShardPlan(scenario=scenario, num_shards=3, stream_path=str(path_a)),
        jobs=1,
    )
    report_b = run_scale(
        ShardPlan(scenario=scenario, num_shards=3, stream_path=str(path_b)),
        jobs=3,
    )
    assert _flow_records(path_a) == _flow_records(path_b)
    # Not just the same set: the same lines in the same (shard) order.
    assert _flow_lines(path_a) == _flow_lines(path_b)
    assert len(_flow_lines(path_a)) == report_a.flows
    assert _report_key(report_a) == _report_key(report_b)


def test_shards_partition_the_population():
    """Every flow lands in exactly one shard, keyed by flow_id residue."""
    scenario = _pinned_scenario()
    all_ids = {flow.flow_id for flow in scenario.flows()}
    plan = ShardPlan(scenario=scenario, num_shards=4)
    seen = []
    for cell in plan.cells():
        summary = cell.run()
        assert summary["live_agents"] == 0  # every flow was retired
        seen.append(summary["flows"])
    assert sum(seen) == len(all_ids)


def _fat_tree_shard(rate, stream_path, duration=1.0):
    """Drive one fat-tree shard of 2-segment flows; return the driver,
    the high-water of its live flows and the agents left on nodes."""
    spec = ScenarioSpec(
        topology=FatTreeSpec(k=4, hosts_per_edge=2, seed=3),
        workload=WorkloadSpec(
            arrival="poisson",
            arrival_rate=rate,
            size="fixed",
            mean_size_segments=2.0,
        ),
        duration=duration,
        seed=3,
        name="live-bound",
    )
    network = build_shard_network(spec, 3).network
    part = open(stream_path, "w", encoding="utf-8")
    driver = _ShardDriver(network, iter(spec.flows()), part, "shard/0")
    high_water = 0
    admit = driver._admit

    def admit_and_sample():
        # Only admissions grow the live set, so sampling here sees its peak.
        nonlocal high_water
        admit()
        high_water = max(high_water, len(driver.active))

    driver._admit = admit_and_sample
    driver.start()
    network.run(until=duration)
    driver.finish()
    part.close()
    live_agents = sum(len(node.agents) for node in network.nodes.values())
    return driver, high_water, live_agents


def test_shard_holds_only_live_flows(tmp_path):
    """Flows retire at the ACK that completes them, so a shard's live
    set is the flows still transferring: a few dozen at thousands of
    arrivals per second, and no larger a share of the arrivals when the
    rate doubles."""
    shares = []
    for rate in (2000.0, 4000.0):
        path = tmp_path / f"rate{rate:g}.jsonl"
        driver, high_water, live_agents = _fat_tree_shard(rate, path)
        arrivals = rate * 1.0
        assert driver.admitted > 0.9 * arrivals
        assert driver.completed > 0.99 * driver.admitted
        assert high_water < 0.02 * arrivals
        assert live_agents == 0
        records = [
            record for record in map(json.loads, path.read_text().splitlines())
            if record.get("record") == "flow"
        ]
        assert len(records) == driver.admitted
        for record in records:
            assert record["admitted"] <= record["finish_time"] <= 1.0
        shares.append(high_water / driver.admitted)
    assert shares[1] <= shares[0]


def test_stream_has_header_then_valid_records(tmp_path):
    path = tmp_path / "stream.jsonl"
    run_scale(
        ShardPlan(scenario=_pinned_scenario(), num_shards=2,
                  stream_path=str(path)),
        jobs=2,
    )
    with open(path) as handle:
        lines = handle.read().splitlines()
    records = [json.loads(line) for line in lines]  # every line parses
    assert records[0]["record"] == "header"
    assert records[0]["schema"] == "repro.obs/v1"
    kinds = {record["record"] for record in records}
    assert kinds == {"header", "flow", "shard"}
    assert sum(1 for r in records if r["record"] == "shard") == 2


def test_fixed_stagger_flows_admitted_at_spec_start(tmp_path):
    """Fixed-arrival starts are drawn unsorted; the generator must hand
    them to the admission chain sorted so every flow is constructed at
    its spec start, not lazily at a later flow's start."""
    scenario = ScenarioSpec(
        topology=DumbbellSpec(num_pairs=4, seed=11),
        workload=WorkloadSpec(
            arrival="fixed",
            flow_count=16,
            start_stagger=8.0,
            size="fixed",
            mean_size_segments=20.0,
        ),
        duration=20.0,
        seed=11,
        name="fixed-stagger",
    )
    starts = [flow.start for flow in scenario.flows()]
    assert starts == sorted(starts)
    assert len(set(starts)) > 1  # staggering is non-vacuous
    path = tmp_path / "fixed.jsonl"
    report = run_scale(
        ShardPlan(scenario=scenario, num_shards=3, stream_path=str(path)),
        jobs=1,
    )
    records = [json.loads(line) for line in open(path)]
    flows = [r for r in records if r.get("record") == "flow"]
    assert len(flows) == report.flows == scenario.flow_count() == 16
    for record in flows:
        assert record["admitted"] == record["start"]


def test_shards_simulate_the_specs_own_graph():
    """Structural randomness (wan-mesh chords/delays) comes from the
    topology's seed, never the per-shard simulator seed: every shard of
    every num_shards builds the identical graph the spec describes."""
    spec = ScenarioSpec(
        topology=WanMeshSpec(sites=6, degree=3.0, hosts_per_site=1, seed=21),
        workload=WorkloadSpec(arrival="poisson", arrival_rate=1.0),
        duration=5.0,
        seed=21,
        name="wan",
    )
    plan = ShardPlan(scenario=spec, num_shards=2)

    def link_delays(topology):
        return {
            name: link.delay
            for name, link in topology.network.links.items()
        }

    reference = link_delays(spec.topology.build())
    for index in range(2):
        built = link_delays(build_shard_network(spec, plan.shard_seed(index)))
        assert built == reference


def test_run_shard_cell_validates_index():
    scenario = _pinned_scenario().to_jsonable()
    with pytest.raises(ValueError):
        run_shard_cell(scenario=scenario, shard_index=3, num_shards=2, seed=0)


def test_plan_validation_and_seed_derivation():
    scenario = _pinned_scenario(seed=5)
    with pytest.raises(ValueError):
        ShardPlan(scenario=scenario, num_shards=0)
    with pytest.raises(TypeError):  # flows retire at completion: no reaper
        ShardPlan(scenario=scenario, reap_interval=1.0)
    plan = ShardPlan(scenario=scenario, num_shards=3)
    assert plan.seed == 5
    seeds = {plan.shard_seed(i) for i in range(3)}
    assert len(seeds) == 3  # each shard simulates under its own seed
    reseeded = plan.with_seed(6)
    assert reseeded.scenario.seed == 6
    assert reseeded.shard_seed(0) != plan.shard_seed(0)
    assert plan.with_seed(None) is plan


def test_assemble_partial_reports_failed_shards():
    plan = ShardPlan(scenario=_pinned_scenario(), num_shards=2)
    summary = run_shard_cell(
        scenario=plan.scenario.to_jsonable(), shard_index=0, num_shards=2,
        seed=plan.shard_seed(0),
    )
    report = plan.assemble_partial(
        {"shard/0": summary}, {"shard/1": "worker died"}
    )
    assert report.failed_shards == ["shard/1"]
    assert not report.complete
    assert report.flows == summary["flows"]


def test_failed_and_retried_shards_stream_once(tmp_path, monkeypatch):
    """A shard that dies after streaming some flows adds nothing to the
    stream (which then agrees with the report), and a shard that dies
    and is retried streams each of its flows once."""
    retire = _ShardDriver._retire
    deaths = []

    def dying_retire(self, flow_id):
        retire(self, flow_id)
        retired = self.admitted - len(self.active)
        if self.cell == "shard/1" and retired == 3 and deaths:
            deaths.pop()
            raise RuntimeError("shard died mid-stream")

    monkeypatch.setattr(_ShardDriver, "_retire", dying_retire)
    path = tmp_path / "stream.jsonl"
    plan = ShardPlan(scenario=_pinned_scenario(), num_shards=3,
                     stream_path=str(path))

    deaths.append(1)
    report = run_scale(plan, jobs=1, keep_going=True)
    assert report.failed_shards == ["shard/1"] and not deaths
    records = [json.loads(line) for line in path.read_text().splitlines()]
    flows = [record for record in records if record["record"] == "flow"]
    assert len(flows) == report.flows > 0
    assert {record["cell"] for record in flows} == {"shard/0", "shard/2"}
    assert [record["cell"] for record in records if
            record["record"] == "shard"] == ["shard/0", "shard/2"]
    assert list(tmp_path.iterdir()) == [path]  # the parts are deleted

    deaths.append(1)
    report = run_scale(plan, jobs=1, retries=1, backoff=0.0)
    assert report.complete and not deaths
    records = [json.loads(line) for line in path.read_text().splitlines()]
    keys = [(record["cell"], record["flow_id"])
            for record in records if record["record"] == "flow"]
    assert len(keys) == len(set(keys)) == report.flows
    assert sum(1 for record in records if record["record"] == "header") == 1
