"""End to end at ``--smoke`` size (sizes / 20, one round, < 60 s)."""

import json
import shutil
import subprocess
import sys

import pytest

from bench import OUT, ROOT
from bench.metrics import END_TO_END, PER_LAYER

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def src_listing():
    return sorted(
        (str(path.relative_to(ROOT)), path.stat().st_size)
        for path in (ROOT / "src").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )


def test_smoke_run_covers_every_workload_and_metric():
    before = src_listing()
    done = bench("run", "--smoke", "--rounds", "1", "--seed", "5")
    assert done.returncode == 0, done.stdout + done.stderr
    records = sorted(OUT.glob("run-*-seed5.json"), key=lambda p: p.stat().st_mtime)
    record = json.loads(records[-1].read_text())
    assert record["schema"] == "bench/v1" and record["smoke"] is True
    for key in ("git_sha", "host", "engine_build", "seed", "rounds", "method"):
        assert key in record
    assert record["host"]["nproc"] >= 1
    # Both directions: the record and the contract name the same things.
    assert sorted(record["workloads"]) == sorted(
        w["name"] for w in CONTRACT["workloads"]
    )
    wanted = sorted(m["name"] for m in CONTRACT["end_to_end"])
    for name, summary in record["workloads"].items():
        assert sorted(summary["metrics"]) == wanted, name
        assert summary["failed"] == 0 and summary["attempted"] >= 3, name
        assert len(summary["digest"]) == 64
        for entry in summary["metrics"].values():
            assert entry["median"] > 0 and entry["n"] >= 1
            assert entry["q1"] <= entry["median"] <= entry["q3"]
    digests = {n: s["digest"] for n, s in record["workloads"].items()}
    assert digests["mesh_reorder"] == digests["mesh_reorder_c"]
    # The compiled engine was built out of tree: src/ is untouched.
    assert src_listing() == before
    assert not list((ROOT / "src").rglob("*.so"))


@pytest.mark.parametrize("workload", ["cbr_forward", "scale_fattree"])
def test_driver_protocol(workload):
    untraced = bench("--workload", workload, "--seed", "6", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert untraced.returncode == 0, untraced.stderr
    result = json.loads(untraced.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = bench("--workload", workload, "--seed", "6", "--seconds", "1",
                   "--trace", "1", "--smoke")
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in PER_LAYER
    }
    value = {n: m["value"] for n, m in result["metrics"].items()}
    if workload == "cbr_forward":
        # Discrimination: no TCP at all, forwarding and routing only.
        assert value["core.acks_in"] == 0 and value["tcp.receiver_segments"] == 0
        assert value["routing.choose_route_calls"] > 0 and value["app.self_s"] > 0
    else:
        assert value["tcp.make_sender_calls"] > 100
        assert value["routing.choose_route_calls"] == 0
    # The layer budget closes on the traced run loop.
    parts = sum(
        value[name] for name in value
        if name.endswith("self_s") and not name.startswith("trace.")
    ) + value["trace.other_self_s"]
    if workload == "scale_fattree":
        parts += value["tcp.make_sender_s"]  # built inside the run there
    assert parts == pytest.approx(value["trace.run_wall_s"], rel=0.02)


def test_same_seed_same_digest_other_seed_other_digest():
    digests = []
    for seed in ("7", "7", "8"):
        done = bench("--workload", "mesh_reorder", "--seed", seed,
                     "--seconds", "0.1", "--trace", "1", "--smoke")
        assert done.returncode == 0, done.stderr
        trace = json.loads(sorted(OUT.glob("trace-*.json"))[-1].read_text())
        digests.append(trace["workloads"]["mesh_reorder"]["trace"]["digest"])
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_package_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = bench("--workload", "pr_bulk", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
