"""Tests for the on-disk result cache (repro.exec.cache)."""

import json
import os
import subprocess
import sys

import pytest

from repro.exec.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.exec.spec import SweepCell
from repro.experiments.runner import FairnessResult
from repro.experiments.serialize import (
    decode_result,
    encode_result,
    registered_result_types,
    revive_floats,
)


def _cell(seed=0, **extra_params):
    params = {"alpha": 0.995, "beta": 3.0, "duration": 6.0}
    params.update(extra_params)
    return SweepCell(key=(0.995, 3.0), func="pkg.mod:cell", params=params, seed=seed)


def _fairness_result(**overrides):
    fields = dict(
        topology="dumbbell",
        total_flows=2,
        duration=6.0,
        measure_window=4.0,
        throughputs={"tcp-pr": [1e6], "sack": [2e6]},
        normalized={"tcp-pr": [0.666], "sack": [1.333]},
        mean_normalized={"tcp-pr": 0.666, "sack": 1.333},
        cov={"tcp-pr": 0.0, "sack": 0.0},
        loss_rate=0.0125,
    )
    fields.update(overrides)
    return FairnessResult(**fields)


# ----------------------------------------------------------------------
# Typed serialization round trip
# ----------------------------------------------------------------------
def test_fairness_result_is_registered():
    assert registered_result_types()["FairnessResult"] is FairnessResult


def test_every_package_result_type_names_its_module():
    # decode_result imports that module to rebuild a type nobody imported.
    from repro.experiments.serialize import _RESULT_TYPE_MODULES

    package_types = {
        name: cls.__module__
        for name, cls in registered_result_types().items()
        if cls.__module__.startswith("repro.")
    }
    assert package_types == _RESULT_TYPE_MODULES


def test_encode_decode_registered_dataclass():
    result = _fairness_result()
    blob = encode_result(result)
    assert blob["type"] == "FairnessResult"
    json.dumps(blob)  # fully JSON-able
    assert decode_result(blob) == result


def test_encode_decode_plain_values():
    for value in [3.25, {"a": [1, 2]}, None, "text", [1.5, 2.5]]:
        assert decode_result(json.loads(json.dumps(encode_result(value)))) == value


def test_infinities_survive_the_round_trip():
    result = _fairness_result(cov={"tcp-pr": float("inf"), "sack": 0.0})
    blob = json.loads(json.dumps(encode_result(result)))
    assert decode_result(blob) == result


def test_revive_floats_leaves_ordinary_strings_alone():
    assert revive_floats({"topology": "dumbbell"}) == {"topology": "dumbbell"}
    assert revive_floats(["inf", "-inf", "fine"]) == [
        float("inf"),
        float("-inf"),
        "fine",
    ]


def test_decode_unregistered_type_raises():
    with pytest.raises(KeyError):
        decode_result({"type": "NoSuchResult", "data": {}})


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def test_key_is_deterministic(tmp_path):
    cache = ResultCache(tmp_path, version="1.0")
    assert cache.key_for(_cell()) == cache.key_for(_cell())


def test_key_changes_with_params_seed_func_and_version(tmp_path):
    cache = ResultCache(tmp_path, version="1.0")
    base = cache.key_for(_cell())
    assert cache.key_for(_cell(alpha=0.5)) != base
    assert cache.key_for(_cell(seed=1)) != base
    other_func = SweepCell(key=1, func="pkg.mod:other", params={}, seed=0)
    same_func = SweepCell(key=1, func="pkg.mod:other", params={}, seed=0)
    assert cache.key_for(other_func) == cache.key_for(same_func)
    assert cache.key_for(other_func) != base
    upgraded = ResultCache(tmp_path, version="2.0")
    assert upgraded.key_for(_cell()) != base


def test_key_defaults_to_package_version(tmp_path):
    import repro

    cache = ResultCache(tmp_path)
    assert cache.version == repro.__version__


# ----------------------------------------------------------------------
# Hit / miss / store
# ----------------------------------------------------------------------
def test_miss_then_store_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    cell = _cell()
    hit, value = cache.load(cell)
    assert not hit and value is None

    result = _fairness_result()
    path = cache.store(cell, result)
    assert path.exists()
    assert path.suffix == ".json"
    assert path.parent.parent == tmp_path

    hit, value = cache.load(cell)
    assert hit
    assert value == result
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.errors == 0


def test_store_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(_cell(), 1.5)
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []


def test_spec_change_misses(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(_cell(), 1.0)
    hit, _ = cache.load(_cell(duration=12.0))
    assert not hit


# ----------------------------------------------------------------------
# Corruption recovery
# ----------------------------------------------------------------------
def test_corrupted_entry_recovers_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cell = _cell()
    path = cache.store(cell, _fairness_result())
    path.write_text("{ this is not json")

    hit, value = cache.load(cell)
    assert not hit and value is None
    assert cache.stats.errors == 1
    assert not path.exists(), "corrupted entry must be deleted"

    # The heal cycle: re-store and the hit works again.
    cache.store(cell, _fairness_result())
    hit, value = cache.load(cell)
    assert hit and value == _fairness_result()


def test_entry_with_unknown_result_type_recovers_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cell = _cell()
    path = cache.store(cell, 1.0)
    blob = json.loads(path.read_text())
    blob["result"]["type"] = "VanishedResultClass"
    path.write_text(json.dumps(blob))

    hit, _ = cache.load(cell)
    assert not hit
    assert cache.stats.errors == 1


def test_entry_with_unknown_result_type_stays_on_disk(tmp_path):
    # Valid in the process that wrote it: only this one cannot decode it.
    cache = ResultCache(tmp_path)
    cell = _cell()
    path = cache.store(cell, 1.0)
    blob = json.loads(path.read_text())
    blob["result"]["type"] = "VanishedResultClass"
    path.write_text(json.dumps(blob))
    before = path.read_bytes()

    hit, _ = cache.load(cell)
    assert not hit
    assert path.read_bytes() == before


def test_fairness_entry_decodes_where_only_the_cache_was_imported(tmp_path):
    """A cache-warm fig2 runs in a process that never imported the cell
    code; its FairnessResult entries must still decode there, and stay."""
    cell = _cell()
    path = ResultCache(tmp_path).store(cell, _fairness_result())
    before = path.read_bytes()
    code = (
        "import sys, types\n"
        "from repro.exec.cache import ResultCache\n"
        f"cell = types.SimpleNamespace(func={cell.func!r}, "
        f"params={dict(cell.params)!r}, seed={cell.seed!r})\n"
        f"cache = ResultCache({str(tmp_path)!r})\n"
        "hit, value = cache.load(cell)\n"
        "assert hit and cache.stats.errors == 0, cache.stats\n"
        "print(type(value).__module__, type(value).__qualname__)\n"
        "print(value.mean_normalized['sack'], value.loss_rate)\n"
        "print('repro.sim.engine' in sys.modules, 'repro.app' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "repro.experiments.runner FairnessResult",
        "1.333 0.0125",
        "False False",
    ]
    assert path.read_bytes() == before


def test_entry_missing_result_field_recovers_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cell = _cell()
    path = cache.store(cell, 1.0)
    path.write_text(json.dumps({"schema": CACHE_SCHEMA_VERSION}))

    hit, _ = cache.load(cell)
    assert not hit
    assert cache.stats.errors == 1
