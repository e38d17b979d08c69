"""Figure 6: throughput under ε-parameterized multipath routing.

For each protocol (TCP-PR, TD-FR, DSACK-NM, Inc-by-1, Inc-by-N, EWMA) and
each ε ∈ {0, 1, 4, 10, 500}, a single flow runs alone (no background
traffic) over Figure 5's topology; the protocols are tested one at a time
because the question is how each copes with persistent reordering, not
how they interact.  Two experiment sets: 10 ms and 60 ms per-link delays.

Expected shape (paper): TCP-PR sustains high throughput for every ε,
reaching the multipath aggregate at ε = 0; the DUPACK-based schemes
collapse as ε → 0; TD-FR holds up at 10 ms but loses badly at 60 ms;
at ε = 500 (single path) everyone is equal, and everyone is slower at
60 ms than at 10 ms.
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
    from repro.core.pr import PrConfig
    from repro.tcp.base import TcpConfig
    from repro.topologies.multipath_mesh import MultipathMeshSpec

#: The ε values on Figure 6's x-axis groups.
PAPER_EPSILONS: Sequence[float] = (0.0, 1.0, 4.0, 10.0, 500.0)
#: The protocols in Figure 6's legend (canonical registry names).
PAPER_PROTOCOLS: Sequence[str] = (
    "tcp-pr",
    "tdfr",
    "dsack-nm",
    "inc-by-1",
    "inc-by-n",
    "ewma",
)

QUICK_EPSILONS: Sequence[float] = (0.0, 4.0, 500.0)
QUICK_DURATION = 20.0
PAPER_DURATION = 60.0

#: Initial slow-start threshold applied to *every* protocol in this
#: experiment (segments).  ns-2-era studies always capped the first
#: slow-start with a finite window; without it, NewReno-family variants
#: hit the classic hundreds-of-losses-in-one-window pathology at 60 ms
#: link delay, which the paper's baselines clearly did not.
DEFAULT_INITIAL_SSTHRESH = 128.0


@dataclass
class Fig6Result:
    """Throughput matrix: protocol -> {epsilon -> Mbps}."""

    link_delay: float
    duration: float
    throughput_mbps: Dict[str, Dict[float, float]] = field(default_factory=dict)

    def series(self, protocol: str) -> List[float]:
        return [
            self.throughput_mbps[protocol][eps]
            for eps in sorted(self.throughput_mbps[protocol])
        ]


def run_single_multipath_flow(
    variant: str,
    epsilon: float,
    link_delay: float = 10 * MS,
    duration: float = QUICK_DURATION,
    spec: Optional[MultipathMeshSpec] = None,
    pr_config: Optional[PrConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
    seed: int = 0,
    reorder_acks: bool = True,
    receiver_delayed_ack: bool = False,
) -> float:
    """One cell of Figure 6: a lone flow's goodput in Mbps."""
    from repro.app.bulk import BulkTransfer
    from repro.core.pr import PrConfig
    from repro.obs import maybe_observe
    from repro.tcp.base import TcpConfig
    from repro.topologies.multipath_mesh import (
        MultipathMeshSpec,
        install_epsilon_routing,
    )

    if tcp_config is None:
        tcp_config = TcpConfig(initial_ssthresh=DEFAULT_INITIAL_SSTHRESH)
    if pr_config is None:
        pr_config = PrConfig(initial_ssthresh=DEFAULT_INITIAL_SSTHRESH)
    mesh_spec = spec if spec is not None else MultipathMeshSpec(
        link_delay=link_delay, seed=seed
    )
    net = mesh_spec.build().network
    install_epsilon_routing(net, epsilon, reorder_acks=reorder_acks)
    flow = BulkTransfer(
        net,
        variant,
        "src",
        "dst",
        flow_id=1,
        tcp_config=tcp_config,
        pr_config=pr_config,
        receiver_delayed_ack=receiver_delayed_ack,
    )
    maybe_observe(net)
    net.run(until=duration)
    return flow.delivered_bytes() * 8.0 / duration / MBPS


#: Importable path of this figure's cell function (see :class:`SweepCell`).
CELL_FUNC = "repro.experiments.fig6_multipath:run_fig6_cell"


def run_fig6_cell(
    *,
    protocol: str,
    epsilon: float,
    link_delay: float,
    duration: float,
    pr_config: Optional[PrConfig] = None,
    seed: int,
) -> float:
    """One cell of Figure 6: a lone flow's goodput in Mbps."""
    return run_single_multipath_flow(
        protocol,
        epsilon,
        link_delay=link_delay,
        duration=duration,
        seed=seed,
        pr_config=pr_config,
    )


@dataclass(frozen=True)
class Fig6Spec(ExperimentSpec):
    """Declarative description of one Figure 6 panel (one link delay)."""

    name: ClassVar[str] = "fig6"
    SCALE_PRESETS: ClassVar[Mapping[Scale, Mapping[str, Any]]] = {
        Scale.QUICK: {"epsilons": QUICK_EPSILONS, "duration": QUICK_DURATION},
        Scale.PAPER: {"epsilons": PAPER_EPSILONS, "duration": PAPER_DURATION},
    }

    link_delay: float = 10 * MS
    protocols: Tuple[str, ...] = tuple(PAPER_PROTOCOLS)
    epsilons: Tuple[float, ...] = tuple(QUICK_EPSILONS)
    duration: float = QUICK_DURATION
    pr_config: Optional[PrConfig] = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "epsilons", tuple(self.epsilons))

    def cells(self) -> List[SweepCell]:
        return [
            SweepCell(
                key=(protocol, epsilon),
                func=CELL_FUNC,
                params={
                    "protocol": protocol,
                    "epsilon": epsilon,
                    "link_delay": self.link_delay,
                    "duration": self.duration,
                    "pr_config": self.pr_config,
                },
                seed=self.seed,
            )
            for protocol in self.protocols
            for epsilon in self.epsilons
        ]

    def assemble(self, results: Mapping[Tuple[str, float], float]) -> Fig6Result:
        result = Fig6Result(link_delay=self.link_delay, duration=self.duration)
        for protocol in self.protocols:
            result.throughput_mbps[protocol] = {
                epsilon: results[(protocol, epsilon)] for epsilon in self.epsilons
            }
        return result


def format_fig6(result: Fig6Result) -> str:
    epsilons = sorted(next(iter(result.throughput_mbps.values())))
    header = " ".join(f"eps={eps:<6g}" for eps in epsilons)
    lines = [
        f"Figure 6 (link delay {result.link_delay * 1e3:.0f} ms): "
        "throughput in Mbps",
        f"{'protocol':>9} {header}",
    ]
    for protocol, row in result.throughput_mbps.items():
        cells = " ".join(f"{row[eps]:>10.2f}" for eps in epsilons)
        lines.append(f"{protocol:>9} {cells}")
    return "\n".join(lines)
