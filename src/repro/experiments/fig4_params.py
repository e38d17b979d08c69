"""Figure 4: TCP-SACK's share vs TCP-PR's alpha and beta parameters.

The paper fixes 64 flows (32 TCP-SACK + 32 TCP-PR) and sweeps the TCP-PR
parameters: TCP-SACK's mean normalized throughput stays ≈ 1 for beta > 1
over a wide range of alpha; at beta = 1 TCP-SACK does *better* than
TCP-PR (mean normalized throughput > 1) because mxrtt = ewrtt makes
TCP-PR declare drops spuriously and back off too often.

Also reproduced here: the Section 4 text claim that under extreme loss
(> 15 % drop probability) TCP-SACK gets at most ~20 % more throughput at
beta = 10 while parity holds for 1 < beta < 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Mapping, Sequence, Tuple

from repro.exec.spec import ExperimentSpec, Scale, SweepCell
from repro.util.units import MBPS

if TYPE_CHECKING:
    from repro.experiments.runner import FairnessResult

PAPER_ALPHAS: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.9, 0.995)
PAPER_BETAS: Sequence[float] = (1.0, 2.0, 3.0, 5.0, 10.0)
QUICK_ALPHAS: Sequence[float] = (0.5, 0.995)
QUICK_BETAS: Sequence[float] = (1.0, 3.0, 10.0)

QUICK_FLOWS = 8
PAPER_FLOWS = 64
QUICK_DURATION = 40.0
QUICK_MEASURE_WINDOW = 30.0
PAPER_DURATION = 160.0
PAPER_MEASURE_WINDOW = 60.0


@dataclass
class Fig4Result:
    """The mean-normalized-throughput surface over (alpha, beta)."""

    topology: str
    total_flows: int
    #: (alpha, beta) -> TCP-SACK's mean normalized throughput.
    sack_surface: Dict[Tuple[float, float], float]
    #: (alpha, beta) -> TCP-PR's mean normalized throughput.
    pr_surface: Dict[Tuple[float, float], float]


#: Importable path of this figure's cell function (see :class:`SweepCell`).
CELL_FUNC = "repro.experiments.fig4_params:run_fig4_cell"


def run_fig4_cell(
    *,
    topology: str,
    alpha: float,
    beta: float,
    total_flows: int,
    duration: float,
    measure_window: float,
    seed: int,
) -> FairnessResult:
    """One cell of Figure 4: a fairness run at one (alpha, beta) point."""
    from repro.core.pr import PrConfig
    from repro.experiments.runner import run_fairness

    return run_fairness(
        topology=topology,
        total_flows=total_flows,
        duration=duration,
        measure_window=measure_window,
        pr_config=PrConfig(alpha=alpha, beta=beta),
        seed=seed,
    )


@dataclass(frozen=True)
class Fig4Spec(ExperimentSpec):
    """Declarative description of the Figure 4 (alpha, beta) surface."""

    name: ClassVar[str] = "fig4"
    SCALE_PRESETS: ClassVar[Mapping[Scale, Mapping[str, Any]]] = {
        Scale.QUICK: {
            "alphas": QUICK_ALPHAS,
            "betas": QUICK_BETAS,
            "total_flows": QUICK_FLOWS,
            "duration": QUICK_DURATION,
            "measure_window": QUICK_MEASURE_WINDOW,
        },
        Scale.PAPER: {
            "alphas": PAPER_ALPHAS,
            "betas": PAPER_BETAS,
            "total_flows": PAPER_FLOWS,
            "duration": PAPER_DURATION,
            "measure_window": PAPER_MEASURE_WINDOW,
        },
    }

    topology: str = "dumbbell"
    alphas: Tuple[float, ...] = tuple(QUICK_ALPHAS)
    betas: Tuple[float, ...] = tuple(QUICK_BETAS)
    total_flows: int = QUICK_FLOWS
    duration: float = QUICK_DURATION
    measure_window: float = QUICK_MEASURE_WINDOW
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "betas", tuple(self.betas))

    def cells(self) -> List[SweepCell]:
        return [
            SweepCell(
                key=(alpha, beta),
                func=CELL_FUNC,
                params={
                    "topology": self.topology,
                    "alpha": alpha,
                    "beta": beta,
                    "total_flows": self.total_flows,
                    "duration": self.duration,
                    "measure_window": self.measure_window,
                },
                seed=self.seed,
            )
            for alpha in self.alphas
            for beta in self.betas
        ]

    def assemble(
        self, results: Mapping[Tuple[float, float], FairnessResult]
    ) -> Fig4Result:
        sack_surface: Dict[Tuple[float, float], float] = {}
        pr_surface: Dict[Tuple[float, float], float] = {}
        for alpha in self.alphas:
            for beta in self.betas:
                result = results[(alpha, beta)]
                sack_surface[(alpha, beta)] = result.mean_normalized["sack"]
                pr_surface[(alpha, beta)] = result.mean_normalized["tcp-pr"]
        return Fig4Result(
            topology=self.topology,
            total_flows=self.total_flows,
            sack_surface=sack_surface,
            pr_surface=pr_surface,
        )


def format_fig4(result: Fig4Result) -> str:
    alphas = sorted({key[0] for key in result.sack_surface})
    betas = sorted({key[1] for key in result.sack_surface})
    lines = [
        f"Figure 4 ({result.topology}): TCP-SACK mean normalized throughput "
        f"vs TCP-PR (alpha, beta), {result.total_flows} flows",
        "alpha \\ beta " + " ".join(f"{beta:>7.1f}" for beta in betas),
    ]
    for alpha in alphas:
        row = " ".join(
            f"{result.sack_surface[(alpha, beta)]:>7.3f}" for beta in betas
        )
        lines.append(f"{alpha:>12.3f} {row}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Section 4 text claim: extreme-loss beta sweep
# ----------------------------------------------------------------------
@dataclass
class BetaSweepPoint:
    beta: float
    loss_rate: float
    sack_mean_normalized: float
    pr_mean_normalized: float
    sack_advantage: float  # sack mean T / pr mean T - 1


#: Importable path of the extreme-loss sweep's cell function.
BETA_SWEEP_CELL_FUNC = "repro.experiments.fig4_params:run_beta_sweep_cell"


def run_beta_sweep_cell(
    *,
    beta: float,
    alpha: float,
    total_flows: int,
    bottleneck_mbps: float,
    duration: float,
    measure_window: float,
    seed: int,
) -> FairnessResult:
    """One cell of the extreme-loss sweep: a high-contention run at one beta."""
    from repro.core.pr import PrConfig
    from repro.experiments.runner import run_fairness
    from repro.topologies.dumbbell import DumbbellSpec

    return run_fairness(
        topology="dumbbell",
        total_flows=total_flows,
        duration=duration,
        measure_window=measure_window,
        pr_config=PrConfig(alpha=alpha, beta=beta),
        dumbbell_spec=DumbbellSpec(
            num_pairs=1,
            bottleneck_bandwidth=bottleneck_mbps * MBPS,
            access_bandwidth=100 * MBPS,
            access_delay=1e-3,
            seed=seed,
        ),
        seed=seed,
    )


@dataclass(frozen=True)
class BetaSweepSpec(ExperimentSpec):
    """Declarative description of the Section 4 extreme-loss beta sweep."""

    name: ClassVar[str] = "fig4-extreme"
    SCALE_PRESETS: ClassVar[Mapping[Scale, Mapping[str, Any]]] = {
        Scale.QUICK: {
            "duration": QUICK_DURATION,
            "measure_window": QUICK_MEASURE_WINDOW,
        },
        Scale.PAPER: {
            "duration": PAPER_DURATION,
            "measure_window": PAPER_MEASURE_WINDOW,
        },
    }

    betas: Tuple[float, ...] = (1.5, 3.0, 5.0, 10.0)
    alpha: float = 0.995
    total_flows: int = 8
    bottleneck_mbps: float = 1.5
    duration: float = QUICK_DURATION
    measure_window: float = QUICK_MEASURE_WINDOW
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "betas", tuple(self.betas))

    def cells(self) -> List[SweepCell]:
        return [
            SweepCell(
                key=beta,
                func=BETA_SWEEP_CELL_FUNC,
                params={
                    "beta": beta,
                    "alpha": self.alpha,
                    "total_flows": self.total_flows,
                    "bottleneck_mbps": self.bottleneck_mbps,
                    "duration": self.duration,
                    "measure_window": self.measure_window,
                },
                seed=self.seed,
            )
            for beta in self.betas
        ]

    def assemble(
        self, results: Mapping[float, FairnessResult]
    ) -> List[BetaSweepPoint]:
        points: List[BetaSweepPoint] = []
        for beta in self.betas:
            result = results[beta]
            sack = result.mean_normalized["sack"]
            pr = result.mean_normalized["tcp-pr"]
            points.append(
                BetaSweepPoint(
                    beta=beta,
                    loss_rate=result.loss_rate,
                    sack_mean_normalized=sack,
                    pr_mean_normalized=pr,
                    sack_advantage=(sack / pr - 1.0) if pr > 0 else float("inf"),
                )
            )
        return points


def format_beta_sweep(points: List[BetaSweepPoint]) -> str:
    lines = [
        "Section 4 extreme-loss beta sweep (dumbbell, high contention)",
        f"{'beta':>6} {'loss':>7} {'mean T sack':>12} {'mean T pr':>10} "
        f"{'sack advantage':>15}",
    ]
    for point in points:
        lines.append(
            f"{point.beta:>6.1f} {point.loss_rate:>6.2%} "
            f"{point.sack_mean_normalized:>12.3f} "
            f"{point.pr_mean_normalized:>10.3f} {point.sack_advantage:>14.1%}"
        )
    return "\n".join(lines)
