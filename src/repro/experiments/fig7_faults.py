"""Figure 7 (extension): goodput under scheduled outages and blackouts.

The paper argues TCP-PR survives *persistent* reordering; this
experiment asks the complementary robustness question its Section 1
scenarios imply but never measure: what happens when paths don't merely
reorder but *fail* — a route withdrawn for seconds at a time, the link
behind it dark, ACKs blacked out, and an RTT spike when service returns.

Scenario per cell: one bulk flow over Figure 5's mesh with full
(ε = 0) per-packet multipath.  Every ``period`` seconds the shortest
path suffers a compound outage of ``outage`` seconds — a
:class:`~repro.faults.schedule.PathBlackout` (router withdraws the
route), a flushing :class:`~repro.faults.schedule.LinkDown` on the
path's first hop (packets in flight are lost), an
:class:`~repro.faults.schedule.AckLoss` window on the reverse hop
(feedback starves too), and a trailing 3×
:class:`~repro.faults.schedule.DelaySpike` when the link returns (the
paper's route-change RTT jump).  Goodput is measured over the whole run.

Expected shape: TCP-PR degrades roughly in proportion to the capacity
actually removed, because its timer-driven loss detection treats the
post-outage burst of reordering as reordering.  NewReno's DUPACK logic
misreads the same burst as loss upon loss and collapses its window far
below the surviving capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.exec.spec import ExperimentSpec, Scale, SweepCell
from repro.util.units import MBPS, MS

if TYPE_CHECKING:
    from repro.faults.schedule import FaultEvent, FaultSchedule

#: Protocols compared (TCP-PR vs the classic DUPACK baseline).
PAPER_PROTOCOLS: Sequence[str] = ("tcp-pr", "newreno")
#: Outage durations (seconds of compound failure per period).
PAPER_OUTAGES: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0)
QUICK_OUTAGES: Sequence[float] = (0.0, 1.0, 2.0)
QUICK_DURATION = 20.0
PAPER_DURATION = 60.0

#: Same initial slow-start cap as Figure 6 (see fig6_multipath).
DEFAULT_INITIAL_SSTHRESH = 128.0

#: Livelock watchdog armed on every cell: a fault schedule must never be
#: able to wedge the event loop (cf. non-converging timeout loops).  The
#: densest legitimate same-instant burst (a full window of arrivals plus
#: their ACKs) is two orders of magnitude below this.
LIVELOCK_THRESHOLD = 1_000_000


def outage_schedule(
    outage: float,
    period: float,
    duration: float,
    origin: str = "src",
    dst: str = "dst",
    first_hop: str = "p0m0",
) -> FaultSchedule:
    """The compound fault pattern of one Figure 7 cell.

    Every ``period`` seconds starting at ``t = period``: path 0 blacks
    out for ``outage`` s while its first-hop link goes down (flushed)
    and its reverse hop drops ACKs; recovery brings a 3× delay spike
    for ``min(1, outage)`` s.  ``outage = 0`` yields an empty schedule
    (the fault-free baseline cell).
    """
    from repro.faults.schedule import (
        AckLoss,
        DelaySpike,
        FaultSchedule,
        LinkDown,
        LinkUp,
        PathBlackout,
    )

    events: List[FaultEvent] = []
    if outage <= 0:
        return FaultSchedule(events)
    start = period
    while start + outage <= duration:
        events.append(
            PathBlackout(
                time=start, duration=outage,
                origin=origin, dst=dst, path_index=0,
            )
        )
        events.append(LinkDown(time=start, src=origin, dst=first_hop, flush=True))
        events.append(LinkUp(time=start + outage, src=origin, dst=first_hop))
        events.append(
            AckLoss(
                time=start, duration=outage,
                src=first_hop, dst=origin, rate=1.0,
            )
        )
        events.append(
            DelaySpike(
                time=start + outage, duration=min(1.0, outage),
                src=origin, dst=first_hop, factor=3.0,
            )
        )
        start += period
    return FaultSchedule(events)


@dataclass
class Fig7Result:
    """Goodput matrix: protocol -> {outage seconds -> Mbps (None = failed)}."""

    link_delay: float
    duration: float
    period: float
    goodput_mbps: Dict[str, Dict[float, Optional[float]]] = field(
        default_factory=dict
    )
    #: ``"protocol,outage" -> error summary`` for cells lost to failures
    #: (empty on a clean run); string keys so the result stays JSON-able.
    failures: Dict[str, str] = field(default_factory=dict)

    def series(self, protocol: str) -> List[Optional[float]]:
        return [
            self.goodput_mbps[protocol][outage]
            for outage in sorted(self.goodput_mbps[protocol])
        ]


#: Importable path of this figure's cell function (see :class:`SweepCell`).
CELL_FUNC = "repro.experiments.fig7_faults:run_fig7_cell"


def run_fig7_cell(
    *,
    protocol: str,
    schedule: List[Dict[str, Any]],
    link_delay: float,
    duration: float,
    seed: int,
) -> float:
    """One cell of Figure 7: a lone flow's goodput in Mbps under faults.

    ``schedule`` arrives in its JSON form (cells are plain data for the
    cache and the process boundary) and is revived here.

    When the executor activated ambient instrumentation (``--metrics-out``),
    the cell records its fault timeline and per-flow metrics; otherwise
    every :func:`maybe_observe` call is a no-op.  The construction order
    (injector armed before the flow) is part of the cached results'
    event ordering and must not change.
    """
    from repro.app.bulk import BulkTransfer
    from repro.core.pr import PrConfig
    from repro.faults.injector import Injector
    from repro.faults.schedule import FaultSchedule
    from repro.obs import maybe_observe
    from repro.tcp.base import TcpConfig
    from repro.topologies.multipath_mesh import (
        MultipathMeshSpec,
        install_epsilon_routing,
    )

    mesh_spec = MultipathMeshSpec(link_delay=link_delay, seed=seed)
    net = mesh_spec.build().network
    install_epsilon_routing(net, epsilon=0.0, reorder_acks=True)
    inst = maybe_observe()
    Injector(
        net,
        FaultSchedule.from_jsonable(schedule),
        monitor=inst.fault_timeline() if inst is not None else None,
    ).arm()
    flow = BulkTransfer(
        net,
        protocol,
        "src",
        "dst",
        flow_id=1,
        tcp_config=TcpConfig(initial_ssthresh=DEFAULT_INITIAL_SSTHRESH),
        pr_config=PrConfig(initial_ssthresh=DEFAULT_INITIAL_SSTHRESH),
    )
    maybe_observe(net)
    net.run(until=duration, livelock_threshold=LIVELOCK_THRESHOLD)
    return flow.delivered_bytes() * 8.0 / duration / MBPS


@dataclass(frozen=True)
class Fig7Spec(ExperimentSpec):
    """Declarative description of the Figure 7 outage sweep."""

    name: ClassVar[str] = "fig7"
    SCALE_PRESETS: ClassVar[Mapping[Scale, Mapping[str, Any]]] = {
        Scale.QUICK: {"outages": QUICK_OUTAGES, "duration": QUICK_DURATION},
        Scale.PAPER: {"outages": PAPER_OUTAGES, "duration": PAPER_DURATION},
    }

    link_delay: float = 10 * MS
    protocols: Tuple[str, ...] = tuple(PAPER_PROTOCOLS)
    outages: Tuple[float, ...] = tuple(QUICK_OUTAGES)
    period: float = 10.0
    duration: float = QUICK_DURATION
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "outages", tuple(self.outages))

    def cells(self) -> List[SweepCell]:
        return [
            SweepCell(
                key=(protocol, outage),
                func=CELL_FUNC,
                params={
                    "protocol": protocol,
                    "schedule": outage_schedule(
                        outage, self.period, self.duration
                    ).to_jsonable(),
                    "link_delay": self.link_delay,
                    "duration": self.duration,
                },
                seed=self.cell_seed(f"{protocol}/{outage:g}"),
            )
            for protocol in self.protocols
            for outage in self.outages
        ]

    def assemble(self, results: Mapping[Tuple[str, float], float]) -> Fig7Result:
        return self.assemble_partial(results, {})

    def assemble_partial(
        self, results: Mapping[Any, Any], errors: Mapping[Any, Any]
    ) -> Fig7Result:
        """Degrade gracefully: failed cells become ``None`` holes.

        The robustness figure keeps its shape under partial data — the
        whole point of ``--keep-going`` — with each hole's cause
        recorded in :attr:`Fig7Result.failures`.
        """
        result = Fig7Result(
            link_delay=self.link_delay,
            duration=self.duration,
            period=self.period,
        )
        for protocol in self.protocols:
            result.goodput_mbps[protocol] = {
                outage: results.get((protocol, outage))
                for outage in self.outages
            }
        for key, error in errors.items():
            protocol, outage = key
            result.failures[f"{protocol},{outage:g}"] = (
                f"{error.error}: {error.message}"
                if hasattr(error, "error")
                else str(error)
            )
        return result


def format_fig7(result: Fig7Result) -> str:
    outages = sorted(next(iter(result.goodput_mbps.values())))
    header = " ".join(f"out={outage:<6g}" for outage in outages)
    lines = [
        f"Figure 7 (link delay {result.link_delay * 1e3:.0f} ms, "
        f"{result.period:g} s fault period): goodput in Mbps vs outage "
        "seconds",
        f"{'protocol':>9} {header}",
    ]
    for protocol, row in result.goodput_mbps.items():
        cells = " ".join(
            f"{row[outage]:>10.2f}" if row[outage] is not None else f"{'--':>10}"
            for outage in outages
        )
        lines.append(f"{protocol:>9} {cells}")
    for key, message in result.failures.items():
        lines.append(f"  FAILED {key}: {message}")
    return "\n".join(lines)
