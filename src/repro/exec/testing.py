"""Importable cell functions exercising the runner's failure paths.

Sweep cells reference their work by ``"module:function"`` path, so test
cells must live in an importable module — worker processes re-resolve
the path on their side of the fork.  These helpers are deliberately tiny
and deterministic; the test suite (``tests/test_exec_failures.py``) and
``docs/EXECUTOR.md`` both build scenarios from them.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

#: Importable paths, mirroring the figure modules' ``CELL_FUNC`` idiom.
OK_CELL = "repro.exec.testing:ok_cell"
BOOM_CELL = "repro.exec.testing:boom_cell"
FLAKY_CELL = "repro.exec.testing:flaky_cell"
SLEEPY_CELL = "repro.exec.testing:sleepy_cell"
METRIC_CELL = "repro.exec.testing:metric_cell"
FLOW_CELL = "repro.exec.testing:flow_cell"


def ok_cell(*, value: Any = 1, seed: int) -> Dict[str, Any]:
    """Succeeds immediately, echoing its inputs (cache/round-trip probe)."""
    return {"value": value, "seed": seed}


def boom_cell(*, message: str = "boom", seed: int) -> None:
    """Always raises — the unconditionally crashing cell."""
    raise ValueError(message)


def flaky_cell(*, fail_seed: int, value: Any = 1, seed: int) -> Dict[str, Any]:
    """Fails iff called with ``seed == fail_seed``.

    Passing the cell's own seed as ``fail_seed`` makes the first attempt
    fail deterministically while a retry — which re-derives the attempt
    seed — succeeds, exercising the backoff/retry path without any
    wall-clock coupling.
    """
    if seed == fail_seed:
        raise RuntimeError(f"flaky failure on seed {seed}")
    return {"value": value, "seed": seed}


def sleepy_cell(*, sleep: float, value: Any = 1, seed: int) -> Dict[str, Any]:
    """Sleeps ``sleep`` wall-clock seconds, then succeeds (timeout probe)."""
    time.sleep(sleep)  # lint: allow-wallclock(deliberate stall to trip the runner's wall-clock timeout guard)
    return {"value": value, "seed": seed}


def metric_cell(*, value: float = 1.0, seed: int) -> Dict[str, Any]:
    """Records one counter on the ambient instrumentation, then succeeds.

    With a runner's ``collect_metrics=True`` the counter crosses the
    process boundary as a ``metric`` record tagged with the cell key;
    without collection there is no ambient instrumentation and the cell
    records nothing (telemetry-collection probe).
    """
    from repro.obs import get_ambient

    inst = get_ambient()
    if inst is not None:
        inst.registry.counter("test.cell_value", seed=seed).inc(value)
    return {"value": value, "seed": seed}


def _log_line(log_path: Optional[str], line: str) -> None:
    if log_path is None:
        return
    with open(log_path, "a") as handle:
        handle.write(line + "\n")
        handle.flush()


def flow_cell(
    *,
    duration: float = 4.0,
    block_path: Optional[str] = None,
    log_path: Optional[str] = None,
    tag: str = "cell",
    seed: int,
) -> Dict[str, Any]:
    """A real (tiny) simulation: one TCP-PR flow over a one-pair dumbbell
    for ``duration`` simulated seconds.

    The crash-choreography hooks (both optional) let a test stage a kill
    deterministically: the cell appends ``"<tag>:start"`` to
    ``log_path`` when it starts computing, then stalls on wall-clock
    while ``block_path`` exists.  The test watches the log, SIGKILLs the
    sweep while the cell is stalled, removes the sentinel, and runs the
    sweep again on the same cache.
    """
    from repro.app.bulk import BulkTransfer
    from repro.obs.instrument import maybe_observe
    from repro.topologies.dumbbell import DumbbellSpec

    net = DumbbellSpec(num_pairs=1, seed=seed).build().network
    flow = BulkTransfer(net, "tcp-pr", "s0", "d0", flow_id=1)
    maybe_observe(net)
    _log_line(log_path, f"{tag}:start")
    if block_path is not None:
        while os.path.exists(block_path):
            time.sleep(0.05)  # lint: allow-wallclock(deliberate stall so a crash test can SIGKILL this worker mid-cell)
    net.run(until=duration)
    return {"delivered": flow.receiver.delivered, "seed": seed}
