"""``BENCHMARK.json`` against the catalog, and the import ground rules."""

import json
import re
from pathlib import Path

from bench import ROOT
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_exact_keys_and_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["bench"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)


def test_workloads_match_the_harness_both_ways():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


def test_metrics_match_the_catalog_both_ways():
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == list(
        END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]
    ] == list(PER_LAYER)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in CONTRACT["end_to_end"])}
    ]


def test_no_deprecated_surface_is_imported():
    # ROADMAP item 3 retires these; the harness must outlive them.
    banned = re.compile(
        r"build_dumbbell|build_parking_lot|build_multipath_mesh"
        r"|Fig\dSpec|BetaSweepSpec|core_workloads|repro\.trace\b"
    )
    sources = [
        path
        for path in (ROOT / "bench").rglob("*.py")
        if "out" not in path.parts and path != Path(__file__)
    ]
    assert len(sources) >= 8
    for path in sources:
        found = banned.findall(path.read_text())
        assert not found, f"{path}: {found}"
