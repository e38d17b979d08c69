"""Golden resume tests: a continued run is *bit-identical* to an
uninterrupted one.

The scenarios are real Figure 6 cells (multipath mesh, ε-routing, the
paper's protocols), not toys: persistent reordering keeps hundreds of
events and SACK runs in flight, so any state a snapshot misses shows up
as diverging traces within milliseconds of simulated time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.app.bulk import BulkTransfer
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.core import engine_select
from repro.core.pr import PrConfig
from repro.experiments.fig6_multipath import (
    DEFAULT_INITIAL_SSTHRESH,
    run_single_multipath_flow,
)
from repro.net import packet as packet_mod
from repro.obs.instrument import Instrumentation, ambient, maybe_observe
from repro.sim.engine import Simulator
from repro.sim.errors import InvariantViolation
from repro.tcp.base import TcpConfig
from repro.topologies.multipath_mesh import (
    MultipathMeshSpec,
    install_epsilon_routing,
)
from repro.util.units import MS

#: Three figure cells spanning the interesting regimes: TCP-PR under
#: moderate reordering, TD-FR under the worst-case ε=0, and a
#: DUPACK-based baseline on the single-path ε=500 edge.
CELLS = [("tcp-pr", 4.0), ("tdfr", 0.0), ("dsack-nm", 500.0)]

DURATION = 6.0
CUT = 3.0
SEED = 7


def _build_cell(variant, epsilon, seed=SEED):
    """The exact scenario of one Figure 6 cell (mirrors fig6_multipath)."""
    net = MultipathMeshSpec(link_delay=10 * MS, seed=seed).build().network
    install_epsilon_routing(net, epsilon, reorder_acks=True)
    flow = BulkTransfer(
        net,
        variant,
        "src",
        "dst",
        flow_id=1,
        tcp_config=TcpConfig(initial_ssthresh=DEFAULT_INITIAL_SSTHRESH),
        pr_config=PrConfig(initial_ssthresh=DEFAULT_INITIAL_SSTHRESH),
    )
    return net, flow


def _run_uninterrupted(variant, epsilon):
    packet_mod.reset_uid_counter(0)
    inst = Instrumentation(trace=True)
    with ambient(inst):
        net, flow = _build_cell(variant, epsilon)
        maybe_observe(net)
        net.run(until=DURATION)
    return flow.receiver.delivered, inst.to_records()


def _save_partial(variant, epsilon, path):
    """Run a cell to CUT and checkpoint it (obs and flow ride the graph)."""
    packet_mod.reset_uid_counter(0)
    inst = Instrumentation(trace=True)
    with ambient(inst):
        net, flow = _build_cell(variant, epsilon)
        maybe_observe(net)
        net.sim.register_component("obs", inst)
        net.sim.register_component("flow", flow)
        net.run(until=CUT)
        save_checkpoint(net.sim, path)


@pytest.mark.parametrize("variant,epsilon", CELLS)
def test_resume_is_bit_identical(tmp_path, variant, epsilon):
    delivered, records = _run_uninterrupted(variant, epsilon)
    assert delivered > 0 and records

    path = tmp_path / "cell.ckpt"
    _save_partial(variant, epsilon, path)
    # Simulate process death: globals clobbered, every object gone.
    packet_mod.reset_uid_counter(987654321)

    sim = Simulator.resume(path)
    assert sim.now == CUT
    sim.run(until=DURATION)
    flow = sim.component("flow")
    restored_inst = sim.component("obs")
    assert flow.receiver.delivered == delivered
    assert restored_inst.to_records() == records


def test_resume_across_processes(tmp_path):
    variant, epsilon = CELLS[0]
    delivered, records = _run_uninterrupted(variant, epsilon)
    path = tmp_path / "cell.ckpt"
    _save_partial(variant, epsilon, path)

    script = (
        "import json, sys\n"
        "from repro.sim.engine import Simulator\n"
        "sim = Simulator.resume(sys.argv[1])\n"
        f"sim.run(until={DURATION!r})\n"
        "print(json.dumps({'delivered': sim.component('flow').receiver.delivered,"
        " 'records': sim.component('obs').to_records()}))\n"
    )
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(out.stdout)
    assert result["delivered"] == delivered
    assert result["records"] == json.loads(json.dumps(records))


def test_save_checkpoint_does_not_perturb(tmp_path):
    """Saving mid-run leaves the live run exactly as it was (the
    benchmark's traced pass snapshots ``pr_bulk`` at its midpoint)."""
    variant, epsilon = CELLS[0]
    delivered, records = _run_uninterrupted(variant, epsilon)

    packet_mod.reset_uid_counter(0)
    inst = Instrumentation(trace=True)
    path = tmp_path / "midpoint.ckpt"
    with ambient(inst):
        net, flow = _build_cell(variant, epsilon)
        maybe_observe(net)
        net.run(until=CUT)
        net.sim.save_checkpoint(path)
        net.run(until=DURATION)
    assert flow.receiver.delivered == delivered
    assert inst.to_records() == records
    assert path.exists()


# ----------------------------------------------------------------------
# Cross-build portability (docs/COMPILED.md): a checkpoint written by
# either engine build must load on either build and continue to the
# same bit-identical result.
# ----------------------------------------------------------------------
_ENGINES = [
    "pure",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not engine_select.compiled_available(),
            reason="compiled extension not built "
            f"(`{engine_select.BUILD_HINT}`)",
        ),
    ),
]


@pytest.mark.parametrize("save_engine", _ENGINES)
@pytest.mark.parametrize("load_engine", _ENGINES)
def test_checkpoint_round_trips_across_builds(
    tmp_path, save_engine, load_engine
):
    variant, epsilon = CELLS[0]
    delivered, records = _run_uninterrupted(variant, epsilon)

    path = tmp_path / "cell.ckpt"
    with engine_select.use_engine(save_engine):
        _save_partial(variant, epsilon, path)
    # The header records the producing build (provenance only).
    assert load_checkpoint(path).meta["engine"] == save_engine

    packet_mod.reset_uid_counter(987654321)
    with engine_select.use_engine(load_engine):
        sim = Simulator.resume(path)
        if load_engine == "pure":
            assert type(sim) is Simulator
        else:
            assert type(sim) is not Simulator
        assert sim.now == CUT
        sim.run(until=DURATION)
    assert sim.component("flow").receiver.delivered == delivered
    assert sim.component("obs").to_records() == records


# ----------------------------------------------------------------------
# The Figure 6 cell function
# ----------------------------------------------------------------------
def test_cell_function_unaffected_without_plan(tmp_path):
    """The cell is a plain build-and-run: no ambient checkpoint plan (or
    any other hidden state) exists to change it, so two calls with one
    seed agree."""
    variant, epsilon = CELLS[1]
    packet_mod.reset_uid_counter(0)
    first = run_single_multipath_flow(variant, epsilon, duration=2.0, seed=3)
    packet_mod.reset_uid_counter(0)
    second = run_single_multipath_flow(variant, epsilon, duration=2.0, seed=3)
    assert first == second


# ----------------------------------------------------------------------
# Sanitizer: resume audits the restored heap
# ----------------------------------------------------------------------
def _noop():
    pass


def test_sanitize_resume_rejects_stale_heap(tmp_path):
    path = tmp_path / "bad.ckpt"
    sim = Simulator(seed=0, sanitize=True)
    sim.post_in(1.0, _noop, None, "timer")
    # Corrupt the snapshot source: clock ahead of a live heap entry, the
    # signature of a mixed-up or hand-edited checkpoint.
    sim.now = 5.0
    save_checkpoint(sim, path)
    with pytest.raises(InvariantViolation):
        load_checkpoint(path).resume()


def test_unsanitized_resume_does_not_audit(tmp_path):
    path = tmp_path / "bad.ckpt"
    sim = Simulator(seed=0, sanitize=False)
    sim.post_in(1.0, _noop, None, "timer")
    sim.now = 5.0
    save_checkpoint(sim, path)
    load_checkpoint(path).resume()  # no audit requested, no raise
