"""Sharded scale-out execution of one large :class:`ScenarioSpec`.

A :class:`ShardPlan` partitions a scenario's flow population into
``num_shards`` residue classes (``flow_id % num_shards``) and runs each
class as an independent :class:`~repro.exec.spec.SweepCell` on the
existing :mod:`repro.exec` process pool — inheriting its caching,
timeout/retry/keep-going failure policy, and bit-identical
serial/parallel guarantee for free.

Semantics (documented in ``docs/SCENARIOS.md``): a shard is its own
simulation — flows in different shards do not share queues, so sharding
is an *approximation* that trades cross-shard contention for
parallelism.  What is exact: every shard regenerates the identical flow
population from the scenario seed (see
:mod:`repro.scenarios.workload`) and builds the identical network
structure from the topology's own seed (only the *simulator* runs under
the per-shard seed — see :func:`build_shard_network`), the partition is
a disjoint cover of the population, and for a fixed ``num_shards`` the
merged result is bit-identical whether the shards run serially or
across workers.

Bounded memory is the other contract.  Inside a shard, flows are
*admitted* lazily from the workload generator at their start times and
*retired* at the ACK that completes them (their per-flow record is
streamed to the shard's own part file and the agents leave their
nodes), so resident state is the live population — not everything that
ever ran — and per-flow results are never assembled in memory.

Every file has one writer: a shard writes only its part, and
:func:`run_scale` alone writes the stream — the header, then the parts
of the shards that succeeded in shard order — and deletes the parts.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Any, ClassVar, Dict, Iterator, List, Mapping, Optional

from repro.app.bulk import BulkTransfer
from repro.core.pr import PrConfig
from repro.exec.runner import ResultCache, run_sweep
from repro.exec.spec import ExperimentSpec, Scale, SweepCell
from repro.net.network import Network
from repro.obs import maybe_observe
from repro.obs.export import header_record
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workload import FlowSpec
from repro.sim import Simulator
from repro.sim.rng import derive_child_seed
from repro.tcp.base import TcpConfig
from repro.topologies.base import Topology
from repro.util.units import MBPS

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

#: Importable path of the shard cell function (see :class:`SweepCell`).
CELL_FUNC = "repro.scenarios.shard:run_shard_cell"

#: Slow-start cap applied to every scenario flow (segments); without it
#: the first slow-start of a long flow on a fat path overshoots by
#: hundreds of segments (see fig6's DEFAULT_INITIAL_SSTHRESH).
SCENARIO_INITIAL_SSTHRESH = 128.0


def _part_path(stream_path: str, shard_index: int) -> Path:
    """The part file one shard writes its records to, named after the stream."""
    return Path(f"{stream_path}.shard{shard_index}")


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, default=str) + "\n"


def _max_rss_kb() -> int:
    """This process's peak RSS in KiB (0 where rusage is unavailable)."""
    if resource is None:
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class _ShardDriver:
    """Lazy admission + retirement at completion of one shard's flows.

    Holds the shard's slice of the workload generator; an admission
    event chain constructs each :class:`BulkTransfer` at its start time,
    and each sender's completion callback retires its flow (streams its
    record, detaches its agents from their nodes) so live state is only
    the flows still transferring.
    """

    def __init__(
        self,
        network: Network,
        flows: Iterator[FlowSpec],
        part: Optional[IO[str]],
        cell: str,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.cell = cell
        self._flows = flows
        self._pending: Optional[FlowSpec] = next(flows, None)
        self._part = part
        self.active: Dict[int, BulkTransfer] = {}
        self._sizes: Dict[int, Optional[int]] = {}
        self._starts: Dict[int, float] = {}
        self._admitted: Dict[int, float] = {}
        self.admitted = 0
        self.completed = 0
        self.delivered_segments = 0
        self.delivered_bytes = 0
        self.per_variant: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the admission chain.

        The chain stays lazy on purpose — one pending event per distinct
        start time, so the flow iterator is never drained ahead of the
        clock and live heap state stays bounded.
        """
        if self._pending is not None:
            self.sim.post(self._pending.start, self._admit)

    def _admit(self) -> None:
        now = self.sim.now
        while self._pending is not None and self._pending.start <= now:
            flow_spec = self._pending
            self._pending = next(self._flows, None)
            if (
                self._pending is not None
                and self._pending.start < flow_spec.start
            ):
                # The admission chain schedules one event per distinct
                # start time, so an unsorted stream would silently admit
                # flows late; generate_flows guarantees sorted order in
                # both arrival modes — fail loudly if that breaks.
                raise ValueError(
                    f"flow stream not sorted by start time: flow "
                    f"{self._pending.flow_id} starts at "
                    f"{self._pending.start} after flow "
                    f"{flow_spec.flow_id} at {flow_spec.start}"
                )
            size = flow_spec.size_segments
            flow = BulkTransfer(
                self.network,
                flow_spec.variant,
                flow_spec.src,
                flow_spec.dst,
                flow_id=flow_spec.flow_id,
                start_at=now,
                tcp_config=TcpConfig(
                    total_segments=size,
                    initial_ssthresh=SCENARIO_INITIAL_SSTHRESH,
                ),
                pr_config=PrConfig(
                    total_segments=size,
                    initial_ssthresh=SCENARIO_INITIAL_SSTHRESH,
                ),
            )
            maybe_observe(flow)
            flow.sender.on_complete = self._on_complete
            self.active[flow_spec.flow_id] = flow
            self._sizes[flow_spec.flow_id] = size
            self._starts[flow_spec.flow_id] = flow_spec.start
            self._admitted[flow_spec.flow_id] = now
            self.admitted += 1
            stats = self.per_variant.setdefault(
                flow.variant,
                {"flows": 0, "completed": 0, "delivered_segments": 0},
            )
            stats["flows"] += 1
        if self._pending is not None:
            self.sim.post(self._pending.start, self._admit)

    def _on_complete(self, sender: Any) -> None:
        self._retire(sender.flow_id)

    def _retire(self, flow_id: int) -> None:
        """Record and release one flow (its agents leave their nodes)."""
        flow = self.active.pop(flow_id)
        completed = bool(flow.sender.done)
        delivered = flow.delivered_segments
        self.delivered_segments += delivered
        self.delivered_bytes += flow.delivered_bytes()
        stats = self.per_variant[flow.variant]
        stats["delivered_segments"] += delivered
        if completed:
            self.completed += 1
            stats["completed"] += 1
        if self._part is not None:
            self._part.write(_line({
                "record": "flow",
                "cell": self.cell,
                "flow_id": flow_id,
                "variant": flow.variant,
                "src": flow.src,
                "dst": flow.dst,
                "start": self._starts.pop(flow_id),
                "admitted": self._admitted.pop(flow_id),
                "size_segments": self._sizes.pop(flow_id),
                "delivered_segments": delivered,
                "completed": completed,
                "finish_time": self.sim.now,
            }))
        else:
            self._starts.pop(flow_id)
            self._admitted.pop(flow_id)
            self._sizes.pop(flow_id)
        for agent in (flow.sender, flow.receiver):
            agent.node.agents.pop(flow_id, None)

    def finish(self) -> None:
        """Retire whatever is still live at the end of the horizon."""
        for flow_id in sorted(self.active):
            self._retire(flow_id)


def build_shard_network(spec: ScenarioSpec, sim_seed: int) -> Topology:
    """Build a shard's network: spec-seeded structure, shard-seeded sim.

    The topology is built from ``spec.topology`` *unchanged*, so its
    structural randomness (chord placement, per-link delay draws) comes
    from the spec's own seed and every shard — and every ``num_shards``
    setting — simulates the identical graph the spec describes.  Only
    the :class:`~repro.sim.Simulator` (runtime streams: loss, multipath
    hashing, jitter) runs under the per-shard ``sim_seed``.
    """
    return spec.topology.build(Simulator(seed=sim_seed))


def run_shard_cell(
    *,
    scenario: Dict[str, Any],
    shard_index: int,
    num_shards: int,
    stream_path: Optional[str] = None,
    seed: int,
) -> Dict[str, Any]:
    """One shard of a scenario: build, admit, run, stream, summarize.

    ``scenario`` arrives in its JSON form (cells are plain data for the
    cache and the process boundary).  The flow population is regenerated
    from the *scenario* seed and filtered to ``flow_id % num_shards ==
    shard_index``; the simulator itself runs under the per-shard
    ``seed`` the plan derived, while the topology's *structural* streams
    (wan-mesh chords and delay draws, fat-tree jitter) stay under the
    spec's own seed — every shard simulates the identical graph the
    saved scenario describes.  Returns a JSON-able shard summary.

    With a ``stream_path``, the shard writes its ``flow`` records and
    its ``shard`` summary to its own part file,
    ``<stream_path>.shard<shard_index>``, as it runs; a retried attempt
    rewrites the part from the start.  A cache hit on this cell returns
    the summary *without* writing the part — run with caching disabled
    when the stream is the product.
    """
    spec = ScenarioSpec.from_jsonable(scenario)
    if not 0 <= shard_index < num_shards:
        raise ValueError(
            f"shard_index {shard_index} out of range for {num_shards} shards"
        )
    topology = build_shard_network(spec, seed)
    network = topology.network
    maybe_observe(network)

    cell = f"shard/{shard_index}"
    flows = (
        flow for flow in spec.flows() if flow.flow_id % num_shards == shard_index
    )
    part: Optional[IO[str]] = None
    if stream_path:
        path = _part_path(stream_path, shard_index)
        path.parent.mkdir(parents=True, exist_ok=True)
        part = path.open("w", encoding="utf-8")
    try:
        driver = _ShardDriver(network, flows, part, cell)
        driver.start()
        network.run(until=spec.duration)
        driver.finish()
        summary: Dict[str, Any] = {
            "shard_index": shard_index,
            "num_shards": num_shards,
            "flows": driver.admitted,
            "completed": driver.completed,
            "delivered_segments": driver.delivered_segments,
            "delivered_bytes": driver.delivered_bytes,
            "goodput_mbps": (
                driver.delivered_bytes * 8.0 / spec.duration / MBPS
            ),
            "per_variant": driver.per_variant,
            "drops": network.total_drops(),
            "dead_letters": network.dead_letters(),
            "live_agents": sum(
                len(node.agents) for node in network.nodes.values()
            ),
            "max_rss_kb": _max_rss_kb(),
        }
        if part is not None:
            part.write(_line({"record": "shard", "cell": cell, **summary}))
        return summary
    finally:
        if part is not None:
            part.close()


@dataclass
class ScenarioReport:
    """Merged outcome of a sharded scenario run."""

    scenario: str
    num_shards: int
    duration: float
    flows: int
    completed: int
    delivered_segments: int
    delivered_bytes: int
    goodput_mbps: float
    per_variant: Dict[str, Dict[str, int]]
    drops: int
    dead_letters: int
    max_rss_kb: int
    failed_shards: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failed_shards

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "num_shards": self.num_shards,
            "duration": self.duration,
            "flows": self.flows,
            "completed": self.completed,
            "delivered_segments": self.delivered_segments,
            "delivered_bytes": self.delivered_bytes,
            "goodput_mbps": self.goodput_mbps,
            "per_variant": self.per_variant,
            "drops": self.drops,
            "dead_letters": self.dead_letters,
            "max_rss_kb": self.max_rss_kb,
            "failed_shards": list(self.failed_shards),
        }


@dataclass(frozen=True)
class ShardPlan(ExperimentSpec):
    """A scenario exploded into per-flow-group shard cells.

    ``stream_path`` (optional) is the ``repro.obs/v1`` file of per-flow
    records (see ``docs/SCENARIOS.md``).  Each shard writes its records
    to its own part; :func:`run_scale` then writes the stream — header,
    then the parts of the shards that succeeded, in shard order — so its
    flow lines are the same for any ``jobs``, it holds exactly the flows
    of the report, and it replaces whatever was at the path before.
    """

    name: ClassVar[str] = "scale"
    SCALE_PRESETS: ClassVar[Mapping[Scale, Mapping[str, Any]]] = {}

    scenario: ScenarioSpec = field(
        default_factory=lambda: ScenarioSpec(
            topology=_default_topology(), workload=_default_workload()
        )
    )
    num_shards: int = 1
    stream_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")

    @property
    def seed(self) -> int:
        """The master seed is the scenario's (one source of truth)."""
        return self.scenario.seed

    def with_seed(self, seed: "int | None") -> "ShardPlan":
        if seed is None:
            return self
        return replace(self, scenario=self.scenario.with_seed(seed))

    def shard_seed(self, index: int) -> int:
        """Deterministic per-shard simulator seed."""
        return derive_child_seed(self.scenario.seed, f"{self.name}/shard/{index}")

    def cells(self) -> List[SweepCell]:
        payload = self.scenario.to_jsonable()
        return [
            SweepCell(
                key=f"shard/{index}",
                func=CELL_FUNC,
                params={
                    "scenario": payload,
                    "shard_index": index,
                    "num_shards": self.num_shards,
                    "stream_path": self.stream_path,
                },
                seed=self.shard_seed(index),
            )
            for index in range(self.num_shards)
        ]

    def assemble(self, results: Mapping[Any, Any]) -> ScenarioReport:
        return self.assemble_partial(results, {})

    def assemble_partial(
        self, results: Mapping[Any, Any], errors: Mapping[Any, Any]
    ) -> ScenarioReport:
        """Merge shard summaries; failed shards become report holes."""
        per_variant: Dict[str, Dict[str, int]] = {}
        flows = completed = segments = delivered = drops = dead = 0
        max_rss = 0
        for key in sorted(results, key=str):
            summary = results[key]
            flows += int(summary["flows"])
            completed += int(summary["completed"])
            segments += int(summary["delivered_segments"])
            delivered += int(summary["delivered_bytes"])
            drops += int(summary["drops"])
            dead += int(summary["dead_letters"])
            max_rss = max(max_rss, int(summary.get("max_rss_kb", 0)))
            for variant, stats in summary["per_variant"].items():
                merged = per_variant.setdefault(
                    variant,
                    {"flows": 0, "completed": 0, "delivered_segments": 0},
                )
                for field_name, value in stats.items():
                    merged[field_name] = merged.get(field_name, 0) + int(value)
        return ScenarioReport(
            scenario=self.scenario.name,
            num_shards=self.num_shards,
            duration=self.scenario.duration,
            flows=flows,
            completed=completed,
            delivered_segments=segments,
            delivered_bytes=delivered,
            goodput_mbps=delivered * 8.0 / self.scenario.duration / MBPS,
            per_variant=per_variant,
            drops=drops,
            dead_letters=dead,
            max_rss_kb=max_rss,
            failed_shards=sorted(str(key) for key in errors),
        )


def _default_topology() -> Any:
    from repro.topologies.dumbbell import DumbbellSpec

    return DumbbellSpec(num_pairs=1)


def _default_workload() -> Any:
    from repro.scenarios.workload import WorkloadSpec

    return WorkloadSpec(arrival="fixed", flow_count=4, size="fixed",
                        mean_size_segments=50.0)


def run_scale(
    plan: ShardPlan,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    seed: Optional[int] = None,
    **exec_options: Any,
) -> ScenarioReport:
    """Run a sharded scenario through the sweep executor.

    When the plan streams per-flow records, the stream is written once
    the shards are done: the header, then the part of every shard that
    succeeded, in shard order.  The parts are deleted either way.  Extra
    keyword arguments (``runner``, ``timeout``, ``retries``,
    ``keep_going``) forward to :func:`~repro.exec.runner.run_sweep`.
    """
    try:
        report = run_sweep(
            plan, jobs=jobs, cache=cache, seed=seed, **exec_options
        )
        assert isinstance(report, ScenarioReport)
        if plan.stream_path:
            _write_stream(plan.stream_path, report)
        return report
    finally:
        if plan.stream_path:
            for index in range(plan.num_shards):
                _part_path(plan.stream_path, index).unlink(missing_ok=True)


def _write_stream(stream_path: str, report: ScenarioReport) -> None:
    """Header, then each succeeded shard's part, copied a chunk at a time.

    A shard served from the cache wrote no part and adds no records.
    """
    failed = set(report.failed_shards)
    with open(stream_path, "wb") as stream:
        header = header_record(scenario=report.scenario, command="scale")
        stream.write(_line(header).encode("utf-8"))
        for index in range(report.num_shards):
            path = _part_path(stream_path, index)
            if f"shard/{index}" not in failed and path.exists():
                with path.open("rb") as part:
                    shutil.copyfileobj(part, stream)


def format_scale(report: ScenarioReport) -> str:
    """Human-readable summary of a :class:`ScenarioReport`."""
    lines = [
        f"Scenario {report.scenario!r}: {report.flows} flows over "
        f"{report.num_shards} shard(s), {report.duration:g} s horizon",
        f"  completed {report.completed}/{report.flows} flows, "
        f"delivered {report.delivered_segments} segments "
        f"({report.goodput_mbps:.2f} Mbps aggregate)",
        f"  drops {report.drops}, dead letters {report.dead_letters}, "
        f"peak worker RSS {report.max_rss_kb} KiB",
    ]
    for variant in sorted(report.per_variant):
        stats = report.per_variant[variant]
        lines.append(
            f"  {variant:>9}: flows={stats['flows']} "
            f"completed={stats['completed']} "
            f"segments={stats['delivered_segments']}"
        )
    if report.failed_shards:
        lines.append(f"  FAILED shards: {', '.join(report.failed_shards)}")
    return "\n".join(lines)
