"""Tests for experiment-result JSON serialization."""

import json

from repro.exec.runner import run_sweep
from repro.experiments.fig6_multipath import Fig6Spec
from repro.experiments.runner import run_fairness
from repro.experiments.serialize import dump_result, result_to_jsonable


def test_tuple_keys_flattened():
    data = {(0.5, 3.0): 1.0}
    assert result_to_jsonable(data) == {"0.5,3.0": 1.0}


def test_infinities_become_strings():
    assert result_to_jsonable(float("inf")) == "inf"
    assert result_to_jsonable(float("-inf")) == "-inf"
    assert result_to_jsonable(1.5) == 1.5


def test_nested_structures():
    data = {"a": [(1, 2), {"b": None}]}
    assert result_to_jsonable(data) == {"a": [[1, 2], {"b": None}]}


def test_fairness_result_round_trips(tmp_path):
    result = run_fairness(
        topology="dumbbell", total_flows=2, duration=4.0, measure_window=2.0
    )
    path = dump_result(result, tmp_path / "fairness.json")
    loaded = json.loads(path.read_text())
    assert loaded["topology"] == "dumbbell"
    assert "tcp-pr" in loaded["mean_normalized"]
    assert isinstance(loaded["throughputs"]["sack"], list)


def test_fig6_result_serializes(tmp_path):
    result = run_sweep(
        Fig6Spec(protocols=("tcp-pr",), epsilons=(500.0,), duration=3.0)
    )
    blob = result_to_jsonable(result)
    # Float dict keys become strings; values survive.
    assert "tcp-pr" in blob["throughput_mbps"]
    assert "500.0" in blob["throughput_mbps"]["tcp-pr"]
    json.dumps(blob)  # fully JSON-compatible
