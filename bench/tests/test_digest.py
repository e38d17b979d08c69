"""Digest canonicalisation: timing fields stripped, key order irrelevant."""

from bench.digest import TIMING_KEYS, canonical, result_digest


def test_key_order_is_irrelevant():
    a = {"flows": 3, "per_variant": {"tcp-pr": {"flows": 3, "completed": 3}}}
    b = {"per_variant": {"tcp-pr": {"completed": 3, "flows": 3}}, "flows": 3}
    assert result_digest(a) == result_digest(b)


def test_timing_fields_are_stripped_at_any_depth():
    base = {"flows": 3, "shards": [{"drops": 0}, {"drops": 1}]}
    noisy = {
        "flows": 3,
        "max_rss_kb": 45428,
        "elapsed": 1.25,
        "shards": [{"drops": 0, "wall_time": 0.3}, {"drops": 1, "wall_s": 0.4}],
    }
    assert canonical(noisy) == base
    assert result_digest(noisy) == result_digest(base)
    assert {"max_rss_kb", "elapsed", "wall_time"} <= TIMING_KEYS


def test_simulated_values_change_the_digest():
    assert result_digest({"events": 1}) != result_digest({"events": 2})
    assert result_digest([1, 2]) != result_digest([2, 1])


def test_tuples_and_lists_hash_alike():
    assert result_digest({"a": (1, 2)}) == result_digest({"a": [1, 2]})
