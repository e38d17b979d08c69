"""Extension experiment: Eifel, TCP-DOOR, and the classic senders under
the Figure 6 multipath scenario.

The paper's comparison set is TCP-PR, TD-FR, and the DSACK responses;
Eifel [15], TCP-DOOR [20], and RR-TCP [21] are discussed in Related Work
but not simulated (RR-TCP explicitly: "since the simulation
implementation of this method is not yet available, it was not included
in this comparison").  This benchmark places them — plus plain Reno,
NewReno, and SACK — on the same ε axis, rounding out the related-work
landscape.
"""

import pytest

from repro.exec.runner import run_sweep
from repro.exec.spec import Scale
from repro.experiments.fig6_multipath import Fig6Spec, format_fig6
from repro.util.units import MS

from conftest import paper_scale, save_result

EXTENSION_PROTOCOLS = (
    "tcp-pr", "rr-tcp", "eifel", "door", "sack", "newreno", "reno"
)


def test_extensions_on_multipath(benchmark):
    epsilons = (0.0, 4.0, 500.0)
    duration = 30.0 if paper_scale() else 15.0

    def run():
        return run_sweep(Fig6Spec.presets(
            Scale.QUICK,
            link_delay=10 * MS,
            protocols=EXTENSION_PROTOCOLS,
            epsilons=epsilons,
            duration=duration,
        ))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "extensions_multipath",
        "Related-work extensions on the Figure 6 mesh (10 ms links)\n"
        + format_fig6(result),
    )

    table = result.throughput_mbps
    # TCP-PR still wins at full multipath.
    assert table["tcp-pr"][0.0] == max(row[0.0] for row in table.values())
    # Undo-capable variants (Eifel restores state after spurious
    # retransmissions) beat the plain undo-less senders at eps=0.
    assert table["eifel"][0.0] > table["newreno"][0.0]
    # RR-TCP's percentile adaptation beats plain SACK at eps=0.
    assert table["rr-tcp"][0.0] > table["sack"][0.0]
    # Everyone ties on the single path.
    single = [row[500.0] for row in table.values()]
    assert max(single) < 2.0 * min(single)
