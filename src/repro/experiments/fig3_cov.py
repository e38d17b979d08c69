"""Figure 3: coefficient of variation of normalized throughput vs loss rate.

"The variation in loss probability was simulated by decreasing the link
bandwidth": a fixed mixed population of TCP-PR and TCP-SACK flows is run
over dumbbell / parking-lot topologies whose bottleneck bandwidth shrinks
step by step, raising contention loss from a few percent to >10 %.  The
paper's finding: TCP-PR's CoV tracks TCP-SACK's over the whole range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Mapping, Sequence, Tuple

from repro.exec.spec import ExperimentSpec, Scale, SweepCell
from repro.util.units import MBPS

if TYPE_CHECKING:
    from repro.experiments.runner import FairnessResult

#: Bottleneck bandwidth levels (Mbps) used to sweep the loss rate.
PAPER_BANDWIDTHS_MBPS: Sequence[float] = (10.0, 6.0, 4.0, 2.5, 1.5)
QUICK_BANDWIDTHS_MBPS: Sequence[float] = (6.0, 2.5)

QUICK_FLOWS = 8
PAPER_FLOWS = 16
QUICK_DURATION = 40.0
QUICK_MEASURE_WINDOW = 30.0
PAPER_DURATION = 160.0
PAPER_MEASURE_WINDOW = 60.0


@dataclass
class Fig3Point:
    """One (loss rate, CoV) observation per protocol."""

    bandwidth_mbps: float
    loss_rate: float
    cov: Dict[str, float]
    result: FairnessResult


@dataclass
class Fig3Result:
    topology: str
    points: List[Fig3Point]


#: Importable path of this figure's cell function (see :class:`SweepCell`).
CELL_FUNC = "repro.experiments.fig3_cov:run_fig3_cell"


def run_fig3_cell(
    *,
    topology: str,
    bandwidth_mbps: float,
    total_flows: int,
    duration: float,
    measure_window: float,
    alpha: float,
    beta: float,
    seed: int,
) -> FairnessResult:
    """One cell of Figure 3: a fairness run at one bottleneck bandwidth."""
    from repro.core.pr import PrConfig
    from repro.experiments.runner import run_fairness
    from repro.topologies.dumbbell import DumbbellSpec
    from repro.topologies.parking_lot import ParkingLotSpec

    kwargs = {}
    if topology == "dumbbell":
        kwargs["dumbbell_spec"] = DumbbellSpec(
            num_pairs=1,
            bottleneck_bandwidth=bandwidth_mbps * MBPS,
            access_bandwidth=100 * MBPS,
            access_delay=1e-3,
            seed=seed,
        )
    elif topology == "parking-lot":
        kwargs["parking_spec"] = ParkingLotSpec(
            backbone_bandwidth=bandwidth_mbps * MBPS, seed=seed
        )
    else:
        raise ValueError(f"unknown topology {topology!r}")
    return run_fairness(
        topology=topology,
        total_flows=total_flows,
        duration=duration,
        measure_window=measure_window,
        pr_config=PrConfig(alpha=alpha, beta=beta),
        seed=seed,
        **kwargs,
    )


@dataclass(frozen=True)
class Fig3Spec(ExperimentSpec):
    """Declarative description of one Figure 3 panel."""

    name: ClassVar[str] = "fig3"
    SCALE_PRESETS: ClassVar[Mapping[Scale, Mapping[str, Any]]] = {
        Scale.QUICK: {
            "bandwidths_mbps": QUICK_BANDWIDTHS_MBPS,
            "total_flows": QUICK_FLOWS,
            "duration": QUICK_DURATION,
            "measure_window": QUICK_MEASURE_WINDOW,
        },
        Scale.PAPER: {
            "bandwidths_mbps": PAPER_BANDWIDTHS_MBPS,
            "total_flows": PAPER_FLOWS,
            "duration": PAPER_DURATION,
            "measure_window": PAPER_MEASURE_WINDOW,
        },
    }

    topology: str = "dumbbell"
    bandwidths_mbps: Tuple[float, ...] = tuple(QUICK_BANDWIDTHS_MBPS)
    total_flows: int = QUICK_FLOWS
    duration: float = QUICK_DURATION
    measure_window: float = QUICK_MEASURE_WINDOW
    alpha: float = 0.995
    beta: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "bandwidths_mbps", tuple(self.bandwidths_mbps))

    def cells(self) -> List[SweepCell]:
        return [
            SweepCell(
                key=bandwidth,
                func=CELL_FUNC,
                params={
                    "topology": self.topology,
                    "bandwidth_mbps": bandwidth,
                    "total_flows": self.total_flows,
                    "duration": self.duration,
                    "measure_window": self.measure_window,
                    "alpha": self.alpha,
                    "beta": self.beta,
                },
                seed=self.seed,
            )
            for bandwidth in self.bandwidths_mbps
        ]

    def assemble(self, results: Mapping[float, FairnessResult]) -> Fig3Result:
        points = [
            Fig3Point(
                bandwidth_mbps=bandwidth,
                loss_rate=results[bandwidth].loss_rate,
                cov=results[bandwidth].cov,
                result=results[bandwidth],
            )
            for bandwidth in self.bandwidths_mbps
        ]
        points.sort(key=lambda point: point.loss_rate)
        return Fig3Result(topology=self.topology, points=points)


def format_fig3(result: Fig3Result) -> str:
    lines = [
        f"Figure 3 ({result.topology}): CoV of normalized throughput vs loss rate",
        f"{'bw (Mbps)':>10} {'loss':>7} {'CoV tcp-pr':>11} {'CoV sack':>9}",
    ]
    for point in result.points:
        lines.append(
            f"{point.bandwidth_mbps:>10.2f} {point.loss_rate:>6.2%} "
            f"{point.cov['tcp-pr']:>11.3f} {point.cov['sack']:>9.3f}"
        )
    return "\n".join(lines)
