"""The traced pass: class-level timing wrappers on public boundaries.

Installed *before any object is built*, inside a worker process that
runs one workload once on the pure engine.  Per-event crossings go to a
:class:`~bench.accounting.SelfTimeAccountant`; coarse calls go to a
:class:`~bench.accounting.SpanLog`.  Engine event callbacks cannot be
wrapped from outside (links and senders cache bound methods of private
functions), so every simulator is built with ``profile=True`` and the
profiler's per-event ``record(label, elapsed)`` call is the root of the
accounting: the event's layer (from its label) is charged ``elapsed``
minus the wrapped calls made inside it.  ``sim.self_s`` is then the
run-loop wall time minus all callback time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from bench.accounting import SelfTimeAccountant, SpanLog

#: First word of an event label -> the layer whose code the callback is.
#: Unlabeled events are the scenario driver's admission/reaping chain.
LABEL_LAYER = {
    "tx": "net",
    "rx": "net",
    "pr": "core",
    "rto": "tcp.sender",
    "tcp": "tcp.sender",
    "tdfr": "tcp.sender",
    "delack": "tcp.receiver",
    "onoff": "app",
    "flow": "obs",
    "cwnd": "obs",
    "queue": "obs",
    "": "scenarios",
}


class Tracer:
    """Installs the wrappers and owns what they record."""

    def __init__(self, workload: str) -> None:
        self.acct = SelfTimeAccountant()
        self.spans = SpanLog(workload)
        #: layer -> self seconds accumulated inside ``Simulator.run``.
        self.in_run: Dict[str, float] = {}
        #: label group -> ``[events, callback_seconds]``.
        self.groups: Dict[str, List[Any]] = {}
        self.events = 0
        self.heap_high_water = 0
        self.flows: List[Any] = []
        self.networks: List[Any] = []
        #: Per-cell wall seconds reported by the executor's telemetry,
        #: one list per ``run_cells`` call.
        self.cell_walls: List[List[float]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        import repro.app.bulk as bulk
        import repro.cli as cli
        from repro.app.onoff import DatagramSink
        from repro.core.pr import TcpPrSender
        from repro.exec.cache import ResultCache
        from repro.exec.runner import ParallelRunner
        from repro.net.network import Network
        from repro.net.node import Node
        from repro.routing.multipath import EpsilonMultipathPolicy
        from repro.scenarios.shard import ShardPlan
        from repro.sim import Simulator
        from repro.sim.profile import SimProfile, group_label
        from repro.tcp.base import TcpSenderBase
        from repro.tcp.receiver import TcpReceiver
        from repro.topologies.dumbbell import DumbbellSpec
        from repro.topologies.fat_tree import FatTreeSpec
        from repro.topologies.multipath_mesh import MultipathMeshSpec

        acct, spans = self.acct, self.spans

        # Per-event boundaries, folded into (calls, self_s).
        for cls, method, layer in (
            (Node, "send", "net.send"),
            (Node, "receive", "net.receive"),
            (EpsilonMultipathPolicy, "choose_route", "routing"),
            (TcpPrSender, "receive", "core"),
            (TcpSenderBase, "receive", "tcp.sender"),
            (TcpReceiver, "receive", "tcp.receiver"),
            (DatagramSink, "receive", "app"),
        ):
            setattr(cls, method, acct.wrap(layer, getattr(cls, method)))
        # BulkTransfer reaches make_sender through its module global.
        bulk.make_sender = acct.wrap("tcp.make_sender", bulk.make_sender)

        # Coarse calls, kept as individual spans.
        for cls, method, name in (
            (DumbbellSpec, "build", "topologies.build"),
            (MultipathMeshSpec, "build", "topologies.build"),
            (FatTreeSpec, "build", "topologies.build"),
            (ResultCache, "load", "exec.cache_load"),
            (ResultCache, "store", "exec.cache_store"),
            (ShardPlan, "assemble", "scenarios.merge"),
        ):
            setattr(cls, method, spans.wrap(name, getattr(cls, method)))
        cli.write_jsonl = spans.wrap("obs.export", cli.write_jsonl)

        run_cells = ParallelRunner.run_cells

        def traced_run_cells(runner: Any, cells: Any) -> Any:
            with spans.span("exec.run_cells"):
                try:
                    return run_cells(runner, cells)
                finally:
                    telemetry = runner.last_stats.telemetry
                    self.cell_walls.append(
                        [cell.wall_time for cell in telemetry.cells]
                        if telemetry is not None
                        else []
                    )

        ParallelRunner.run_cells = traced_run_cells  # type: ignore[method-assign]

        # Remember what gets built, to read public counters afterwards.
        self._remember(bulk.BulkTransfer, self.flows)
        self._remember(Network, self.networks)

        # Every simulator profiles; the profiler's record() is the root.
        sim_init = Simulator.__init__

        def profiled_init(
            sim: Any, seed: int = 0, profile: bool = False, sanitize: bool = False
        ) -> None:
            sim_init(sim, seed, True, sanitize)

        Simulator.__init__ = profiled_init  # type: ignore[method-assign]

        layers: Dict[str, Tuple[str, List[Any]]] = {}
        groups, charge = self.groups, acct.charge_root

        def record(profile: Any, label: str, elapsed: float) -> None:
            entry = layers.get(label)
            if entry is None:
                word = label.split(None, 1)[0] if label else ""
                entry = layers[label] = (
                    LABEL_LAYER.get(word, "other"),
                    groups.setdefault(group_label(label), [0, 0.0]),
                )
            charge(entry[0], elapsed)
            cell = entry[1]
            cell[0] += 1
            cell[1] += elapsed

        SimProfile.record = record  # type: ignore[method-assign]

        sim_run = Simulator.run

        def traced_run(sim: Any, *args: Any, **kwargs: Any) -> None:
            acct.reset_top()
            before = acct.snapshot()
            events = sim.dispatched_events
            try:
                with spans.span("sim.run"):
                    sim_run(sim, *args, **kwargs)
            finally:
                for layer, (_, self_s) in acct.snapshot().items():
                    gained = self_s - before.get(layer, (0, 0.0))[1]
                    self.in_run[layer] = self.in_run.get(layer, 0.0) + gained
                self.events += sim.dispatched_events - events
                self.heap_high_water = max(
                    self.heap_high_water, sim.stats.heap_high_water or 0
                )

        Simulator.run = traced_run  # type: ignore[method-assign]

    @staticmethod
    def _remember(cls: Any, into: List[Any]) -> None:
        init: Callable[..., None] = cls.__init__

        def remembering_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            into.append(obj)

        cls.__init__ = remembering_init

    # ------------------------------------------------------------------
    def result(self) -> Dict[str, Any]:
        """Everything recorded, as plain JSON data."""
        return {
            "layers": {
                layer: {"calls": calls, "self_s": self_s}
                for layer, (calls, self_s) in self.acct.snapshot().items()
            },
            "in_run": dict(sorted(self.in_run.items())),
            "groups": {
                group: {"events": cell[0], "callback_s": cell[1]}
                for group, cell in sorted(self.groups.items())
            },
            "events": self.events,
            "heap_high_water": self.heap_high_water,
            "run_wall_s": self.spans.total("sim.run"),
            "cell_walls": self.cell_walls,
            "spans": self.spans.spans,
        }


def layer_budget(trace: Dict[str, Any]) -> Dict[str, float]:
    """Split the traced run-loop wall time into per-layer self times.

    ``sim`` is the remainder: run wall minus all callback time.  The
    parts sum to ``run_wall_s`` by construction; ``other`` is callback
    time under labels :data:`LABEL_LAYER` does not know, and should be 0.
    """
    budget = dict.fromkeys(
        ("net", "routing", "core", "tcp.sender", "tcp.receiver",
         "tcp.make_sender", "app", "scenarios", "obs", "other"),
        0.0,
    )
    for layer, self_s in trace["in_run"].items():
        key = "net" if layer.startswith("net.") else layer
        budget[key] = budget.get(key, 0.0) + self_s
    budget["sim"] = trace["run_wall_s"] - sum(budget.values())
    return budget


def _span_durations(trace: Dict[str, Any], name: str) -> List[float]:
    return [
        row[2] - row[1]
        for row in trace["spans"]
        if row[0] == name and row[2] is not None
    ]


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(
    trace: Dict[str, Any], counts: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics one traced pass yields (others stay 0).

    ``counts`` are the public counters of the same workload (they repeat
    exactly, traced or not).  Every ``*.self_s`` is self time inside
    ``Simulator.run``; ``tcp.make_sender_s`` is all endpoint
    construction, which on in-process workloads happens before the run.
    """
    budget = layer_budget(trace)
    layers, groups = trace["layers"], trace["groups"]

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def events(group: str) -> int:
        return groups.get(group, {}).get("events", 0)

    hops, acks = calls("net.receive"), calls("core")
    segments = calls("tcp.receiver")
    cells = trace["cell_walls"][0] if trace["cell_walls"] else []
    run_cells = _span_durations(trace, "exec.run_cells")
    metrics = {
        "sim.events": trace["events"],
        "sim.heap_high_water": trace["heap_high_water"],
        "sim.self_s": budget["sim"],
        "sim.dispatch_ns": _ratio(budget["sim"], trace["events"], 1e9),
        "net.calls": calls("net.send") + hops,
        "net.self_s": budget["net"],
        "net.ns_per_hop": _ratio(budget["net"], hops, 1e9),
        "routing.choose_route_calls": calls("routing"),
        "routing.self_s": budget["routing"],
        "core.acks_in": acks,
        "core.self_s": budget["core"],
        "core.ns_per_ack": _ratio(budget["core"], acks, 1e9),
        "core.timer_events": events("pr timer"),
        "tcp.sender_acks_in": calls("tcp.sender"),
        "tcp.sender_self_s": budget["tcp.sender"],
        "tcp.receiver_segments": segments,
        "tcp.receiver_self_s": budget["tcp.receiver"],
        "tcp.receiver_ns_per_seg": _ratio(budget["tcp.receiver"], segments, 1e9),
        "tcp.make_sender_calls": calls("tcp.make_sender"),
        "tcp.make_sender_s": layers.get("tcp.make_sender", {}).get("self_s", 0.0),
        "app.self_s": budget["app"],
        "scenarios.self_s": budget["scenarios"],
        "obs.self_s": budget["obs"],
        "topologies.build_s": sum(_span_durations(trace, "topologies.build")),
        "scenarios.merge_s": sum(_span_durations(trace, "scenarios.merge")),
        "exec.cell_s_sum": sum(cells),
        "exec.overhead_s": (run_cells[0] - sum(cells)) if run_cells else 0.0,
        "exec.cache_put_s": sum(_span_durations(trace, "exec.cache_store")),
        "obs.export_s": sum(_span_durations(trace, "obs.export")),
        "trace.run_wall_s": trace["run_wall_s"],
        "trace.other_self_s": budget["other"],
    }
    metrics.update(counts)
    return metrics
