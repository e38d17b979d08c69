"""The acceptance scenario for crash recovery: SIGKILL and run again.

A subprocess runs a three-cell sweep on a result cache; the test kills
it -9 while the middle cell is stalled, then runs the same sweep again
on the same cache, with no extra option.  The second run must finish
with **zero lost and zero duplicated completed cells**: the finished
cell is served by the cache, the cell that was in flight runs again
from scratch (same result as an uninterrupted run), and the cell that
never started runs once.

Also here: a ``scale`` run killed mid-shard and run again writes a
whole stream, because every file has one writer.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exec.testing import flow_cell
from repro.obs.export import read_jsonl

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

_SWEEP = """
import json, sys
from pathlib import Path
sys.path.insert(0, {src!r})
from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner
from repro.exec.spec import SweepCell
from repro.exec.testing import FLOW_CELL

cache_dir, log_path, block_path = sys.argv[1:4]
cells = [
    SweepCell(key="c0", func=FLOW_CELL,
              params={{"duration": 1.5, "log_path": log_path, "tag": "c0"}},
              seed=11),
    SweepCell(key="c1", func=FLOW_CELL,
              params={{"duration": 3.0, "block_path": block_path,
                       "log_path": log_path, "tag": "c1"}},
              seed=22),
    SweepCell(key="c2", func=FLOW_CELL,
              params={{"duration": 1.5, "log_path": log_path, "tag": "c2"}},
              seed=33),
]
runner = ParallelRunner(cache=ResultCache(root=Path(cache_dir)))
results = runner.run_cells(cells)
stats = runner.last_stats
print(json.dumps({{
    "results": results,
    "cached": stats.cached,
    "executed": stats.executed,
}}))
"""


def _wait_for(predicate, deadline=90.0, interval=0.05):
    start = time.monotonic()  # lint: allow-wallclock(test coordinates with a real worker process, not simulated time)
    while time.monotonic() - start < deadline:  # lint: allow-wallclock(test coordinates with a real worker process, not simulated time)
        if predicate():
            return True
        time.sleep(interval)  # lint: allow-wallclock(test coordinates with a real worker process, not simulated time)
    return False


@pytest.mark.faults
@pytest.mark.timeout(300)
def test_sigkill_mid_sweep_then_resume_loses_nothing(tmp_path):
    cache_root = tmp_path / "cache"
    log_path = tmp_path / "cells.log"
    block_path = tmp_path / "block"
    block_path.write_text("")  # sentinel: c1 stalls while this exists

    def log_lines():
        return log_path.read_text().splitlines() if log_path.exists() else []

    sweep = _SWEEP.format(src=SRC_DIR)
    argv = [sys.executable, "-c", sweep, str(cache_root), str(log_path), str(block_path)]

    # --- Phase 1: run until c1 is stalled, then SIGKILL. -----------------
    victim = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert _wait_for(lambda: "c1:start" in log_lines()), (
            "c1 never started; sweep stderr:\n"
            + (victim.stderr.read().decode() if victim.poll() is not None else "<still running>")
        )
        assert victim.poll() is None, "sweep exited before the staged kill"
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()

    # Serial order: c0 finished (and was cached), c2 never started.
    assert log_lines() == ["c0:start", "c1:start"]

    # --- Phase 2: unblock and run the identical sweep again. -------------
    block_path.unlink()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)

    # Zero lost cells: all three results present, each equal to an
    # uninterrupted in-process run.
    results = payload["results"]
    assert sorted(results) == ["c0", "c1", "c2"]
    for key, duration, seed in (("c0", 1.5, 11), ("c1", 3.0, 22), ("c2", 1.5, 33)):
        assert results[key] == flow_cell(duration=duration, seed=seed), key

    # Zero duplicated completed cells: c0 was served by the cache, the
    # killed c1 ran a second time from scratch, c2 ran once.
    lines = log_lines()
    assert lines.count("c0:start") == 1
    assert lines.count("c1:start") == 2
    assert lines.count("c2:start") == 1
    assert len(lines) == 4
    assert payload["cached"] == 1  # c0
    assert payload["executed"] == 2  # c1 + c2


# ----------------------------------------------------------------------
# A killed ``scale`` run (each shard writes its part, run_scale the stream)
# ----------------------------------------------------------------------
_SCALE = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.scenarios import ScenarioSpec, ShardPlan, WorkloadSpec, run_scale
from repro.scenarios.shard import _ShardDriver
from repro.topologies import FatTreeSpec

retire = _ShardDriver._retire

def dying_retire(self, flow_id):
    retire(self, flow_id)
    if self.cell == "shard/1" and self.admitted - len(self.active) == 100:
        os.kill(os.getpid(), signal.SIGKILL)

if sys.argv[2] == "kill":
    _ShardDriver._retire = dying_retire
spec = ScenarioSpec(
    topology=FatTreeSpec(k=4, hosts_per_edge=2, seed=3),
    workload=WorkloadSpec(arrival="poisson", arrival_rate=2000.0,
                          size="fixed", mean_size_segments=2.0),
    duration=0.5, seed=3, name="killed",
)
report = run_scale(ShardPlan(scenario=spec, num_shards=2,
                             stream_path=sys.argv[1]))
print(report.flows)
"""


@pytest.mark.faults
@pytest.mark.timeout(300)
def test_scale_rerun_after_kill_writes_a_whole_stream(tmp_path):
    """SIGKILL a ``scale`` run while its second shard streams, onto a
    path that already holds a torn file; then run it again.  The kill
    leaves the old file alone (only ``run_scale`` writes it, after the
    shards), and the rerun replaces it with exactly its own records."""
    stream = tmp_path / "flows.jsonl"
    stream.write_bytes(b'{"record": "flow", "cell": "stale"}\n{"record": "fl')
    script = _SCALE.format(src=SRC_DIR)

    killed = subprocess.run(
        [sys.executable, "-c", script, str(stream), "kill"],
        capture_output=True, text=True, timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert stream.read_bytes().endswith(b'{"record": "fl')
    # Shard 0 finished its part; shard 1 died with part of its part.
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "flows.jsonl", "flows.jsonl.shard0", "flows.jsonl.shard1",
    ]
    assert (tmp_path / "flows.jsonl.shard1").stat().st_size > 0

    done = subprocess.run(
        [sys.executable, "-c", script, str(stream), "run"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    flows = int(done.stdout)
    records = read_jsonl(stream)  # every line parses
    assert records[0]["record"] == "header"
    streamed = [record for record in records if record["record"] == "flow"]
    assert len(streamed) == flows > 200
    assert {record["cell"] for record in streamed} == {"shard/0", "shard/1"}
    assert len({record["flow_id"] for record in streamed}) == flows
    assert [record["cell"] for record in records
            if record["record"] == "shard"] == ["shard/0", "shard/1"]
    assert [path.name for path in tmp_path.iterdir()] == ["flows.jsonl"]
