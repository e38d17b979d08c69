"""Figure 2: fairness of TCP-PR competing with TCP-SACK.

The paper simulates an equal number of TCP-PR and TCP-SACK flows (total
n ∈ {4, 8, 16, 32, 64}) with a common source and destination over the
dumbbell and parking-lot topologies (TCP-PR alpha = 0.995, beta = 3.0,
throughput over the last 60 s) and plots each flow's normalized
throughput plus the per-protocol means.  The expected result: both means
≈ 1 across the whole range — the protocols share fairly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Mapping, Sequence, Tuple

from repro.exec.spec import ExperimentSpec, Scale, SweepCell

if TYPE_CHECKING:
    from repro.experiments.runner import FairnessResult

#: The flow counts on Figure 2's x-axis.
PAPER_FLOW_COUNTS: Sequence[int] = (4, 8, 16, 32, 64)
#: Reduced sweep for the default (quick) benchmark scale.
QUICK_FLOW_COUNTS: Sequence[int] = (4, 8, 16)

PAPER_DURATION = 160.0
PAPER_MEASURE_WINDOW = 60.0
QUICK_DURATION = 40.0
QUICK_MEASURE_WINDOW = 30.0


@dataclass
class Fig2Result:
    """One topology's fairness sweep over flow counts."""

    topology: str
    results: Dict[int, FairnessResult]

    def series(self, protocol: str, metric: str = "mean_normalized") -> List[float]:
        """Extract a per-flow-count series for one protocol."""
        out = []
        for count in sorted(self.results):
            result = self.results[count]
            out.append(getattr(result, metric)[protocol])
        return out


#: Per-flow bottleneck share held constant as the dumbbell sweep grows
#: (the paper does not state its dumbbell bandwidth; at a fixed 15 Mbps
#: the n = 64 point would probe an ultra-high-contention regime the
#: paper's flat fairness results clearly did not).
DUMBBELL_PER_FLOW_BPS = 1.875 * 1e6  # 15 Mbps / 8 flows


#: Importable path of this figure's cell function (see :class:`SweepCell`).
CELL_FUNC = "repro.experiments.fig2_fairness:run_fig2_cell"


def run_fig2_cell(
    *,
    topology: str,
    count: int,
    duration: float,
    measure_window: float,
    alpha: float,
    beta: float,
    seed: int,
) -> FairnessResult:
    """One independent cell of Figure 2: a fairness run at one flow count."""
    from repro.core.pr import PrConfig
    from repro.experiments.runner import run_fairness
    from repro.topologies.dumbbell import DumbbellSpec

    kwargs = {}
    if topology == "dumbbell":
        scale = max(1.0, count / 8.0)
        kwargs["dumbbell_spec"] = DumbbellSpec(
            num_pairs=1,
            bottleneck_bandwidth=max(15e6, DUMBBELL_PER_FLOW_BPS * count),
            access_bandwidth=1e9,
            access_delay=1e-3,
            queue_packets=int(100 * scale),
            seed=seed,
        )
    return run_fairness(
        topology=topology,
        total_flows=count,
        duration=duration,
        measure_window=measure_window,
        pr_config=PrConfig(alpha=alpha, beta=beta),
        seed=seed,
        **kwargs,
    )


@dataclass(frozen=True)
class Fig2Spec(ExperimentSpec):
    """Declarative description of one Figure 2 panel."""

    name: ClassVar[str] = "fig2"
    SCALE_PRESETS: ClassVar[Mapping[Scale, Mapping[str, Any]]] = {
        Scale.QUICK: {
            "flow_counts": QUICK_FLOW_COUNTS,
            "duration": QUICK_DURATION,
            "measure_window": QUICK_MEASURE_WINDOW,
        },
        Scale.PAPER: {
            "flow_counts": PAPER_FLOW_COUNTS,
            "duration": PAPER_DURATION,
            "measure_window": PAPER_MEASURE_WINDOW,
        },
    }

    topology: str = "dumbbell"
    flow_counts: Tuple[int, ...] = tuple(QUICK_FLOW_COUNTS)
    duration: float = QUICK_DURATION
    measure_window: float = QUICK_MEASURE_WINDOW
    alpha: float = 0.995
    beta: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "flow_counts", tuple(self.flow_counts))

    def cells(self) -> List[SweepCell]:
        # Per-cell seed = seed + count: each flow count gets its own
        # independent streams regardless of execution order.
        return [
            SweepCell(
                key=count,
                func=CELL_FUNC,
                params={
                    "topology": self.topology,
                    "count": count,
                    "duration": self.duration,
                    "measure_window": self.measure_window,
                    "alpha": self.alpha,
                    "beta": self.beta,
                },
                seed=self.seed + count,
            )
            for count in self.flow_counts
        ]

    def assemble(self, results: Mapping[int, FairnessResult]) -> Fig2Result:
        return Fig2Result(
            topology=self.topology,
            results={count: results[count] for count in self.flow_counts},
        )


def format_fig2(result: Fig2Result) -> str:
    """Render the reproduced figure as the paper's series, textually."""
    lines = [
        f"Figure 2 ({result.topology}): normalized throughput, "
        "TCP-PR vs TCP-SACK",
        f"{'flows':>6} {'mean T (tcp-pr)':>16} {'mean T (sack)':>14} "
        f"{'CoV (tcp-pr)':>13} {'CoV (sack)':>11} {'loss':>7}",
    ]
    for count in sorted(result.results):
        res = result.results[count]
        lines.append(
            f"{count:>6} {res.mean_normalized['tcp-pr']:>16.3f} "
            f"{res.mean_normalized['sack']:>14.3f} "
            f"{res.cov['tcp-pr']:>13.3f} {res.cov['sack']:>11.3f} "
            f"{res.loss_rate:>6.2%}"
        )
    return "\n".join(lines)
