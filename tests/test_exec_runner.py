"""Tests for the parallel sweep executor (repro.exec.runner).

The load-bearing property: for a fixed spec and seed, results are
bit-identical whether cells run serially, across a process pool, or out
of the cache.
"""

import pytest

from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner, run_sweep
from repro.exec.spec import SweepCell
from repro.experiments import fig6_multipath
from repro.experiments.fig4_params import Fig4Spec
from repro.experiments.fig6_multipath import Fig6Result, Fig6Spec


def _tiny_fig6_spec(seed=0):
    return Fig6Spec(
        protocols=("tcp-pr",), epsilons=(0.0, 500.0), duration=2.0, seed=seed
    )


def _tiny_fig4_spec(seed=0):
    return Fig4Spec(
        alphas=(0.995,), betas=(1.0, 3.0), total_flows=4,
        duration=6.0, measure_window=4.0, seed=seed,
    )


# ----------------------------------------------------------------------
# Serial vs parallel determinism
# ----------------------------------------------------------------------
def test_fig6_parallel_is_bit_identical_to_serial():
    spec = _tiny_fig6_spec(seed=3)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert serial == parallel


def test_fig4_parallel_is_bit_identical_to_serial():
    spec = _tiny_fig4_spec(seed=1)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=4)
    assert serial.sack_surface == parallel.sack_surface
    assert serial.pr_surface == parallel.pr_surface


def test_seed_still_flows_through_parallel_runs():
    one = run_sweep(_tiny_fig6_spec(seed=1), jobs=2)
    two = run_sweep(_tiny_fig6_spec(seed=2), jobs=2)
    assert one != two


# ----------------------------------------------------------------------
# run_sweep
# ----------------------------------------------------------------------
def test_run_sweep_seed_override():
    base = run_sweep(_tiny_fig6_spec(seed=7))
    overridden = run_sweep(_tiny_fig6_spec(seed=0), seed=7)
    assert base == overridden


def test_spec_form_is_the_only_calling_convention():
    """``run_sweep(spec)`` runs a figure spec and matches itself across
    invocations."""
    first = run_sweep(_tiny_fig6_spec())
    second = run_sweep(_tiny_fig6_spec())
    assert first == second


def test_exec_options_still_pass_through():
    result = run_sweep(
        Fig6Spec(protocols=("tcp-pr",), epsilons=(500.0,), duration=2.0),
        keep_going=True,
    )
    assert isinstance(result, Fig6Result)
    assert result.throughput_mbps


def test_run_fig2_spec_form():
    from repro.experiments.fig2_fairness import Fig2Spec

    result = run_sweep(
        Fig2Spec(
            topology="dumbbell",
            flow_counts=(2,),
            duration=4.0,
            measure_window=2.0,
        )
    )
    assert result.topology == "dumbbell"
    assert 2 in result.results


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------
def test_cache_hit_returns_identical_results(tmp_path):
    spec = _tiny_fig6_spec()
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(jobs=1, cache=cache)

    cold = runner.run(spec)
    assert runner.last_stats.executed == 2
    assert runner.last_stats.cached == 0

    warm = runner.run(spec)
    assert runner.last_stats.executed == 0
    assert runner.last_stats.cached == 2
    assert warm == cold


def test_cache_serves_partial_grids(tmp_path):
    cache = ResultCache(tmp_path)
    small = Fig6Spec(protocols=("tcp-pr",), epsilons=(500.0,), duration=2.0)
    run_sweep(small, cache=cache)

    grown = Fig6Spec(protocols=("tcp-pr",), epsilons=(0.0, 500.0), duration=2.0)
    runner = ParallelRunner(jobs=1, cache=cache)
    result = runner.run(grown)
    assert runner.last_stats.cached == 1  # the eps=500 cell was reused
    assert runner.last_stats.executed == 1
    assert result == run_sweep(grown)  # cache reuse does not change values


def test_parallel_execution_populates_cache(tmp_path):
    spec = _tiny_fig6_spec()
    cache = ResultCache(tmp_path)
    parallel = run_sweep(spec, jobs=2, cache=cache)
    assert cache.stats.stores == 2

    runner = ParallelRunner(jobs=1, cache=cache)
    warm = runner.run(spec)
    assert runner.last_stats.cached == 2
    assert warm == parallel


def test_spec_change_invalidates(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(_tiny_fig6_spec(seed=0), cache=cache)
    runner = ParallelRunner(cache=cache)
    runner.run(_tiny_fig6_spec(seed=5))
    assert runner.last_stats.cached == 0
    assert runner.last_stats.executed == 2


# ----------------------------------------------------------------------
# run_cells plumbing
# ----------------------------------------------------------------------
def test_run_cells_rejects_duplicate_keys():
    cell = SweepCell(key="dup", func=fig6_multipath.CELL_FUNC, params={}, seed=0)
    with pytest.raises(ValueError):
        ParallelRunner().run_cells([cell, cell])


def test_run_cells_returns_keyed_results():
    cells = [
        SweepCell(
            key=variant,
            func=fig6_multipath.CELL_FUNC,
            params={
                "protocol": variant,
                "epsilon": 500.0,
                "link_delay": 0.01,
                "duration": 2.0,
            },
            seed=0,
        )
        for variant in ("tcp-pr", "sack")
    ]
    values = ParallelRunner(jobs=2).run_cells(cells)
    assert set(values) == {"tcp-pr", "sack"}
    assert all(throughput > 1.0 for throughput in values.values())


def test_jobs_are_clamped_to_at_least_one():
    assert ParallelRunner(jobs=0).jobs == 1
    assert ParallelRunner(jobs=-3).jobs == 1
