"""What each entry point imports, asserted on ``sys.modules``, never on time.

Start-up cost is import cost, so the guarantee worth pinning is the
import closure: the package root and each package loads nothing, a
command loads only its own command module's needs, a cache-warm figure
loads no simulator, and no run needs a third-party module.  Every
closure case runs in a fresh interpreter (this process has long since
imported everything).
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner
from repro.exec.spec import SweepCell

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

FIG6 = [
    "fig6", "--protocols", "tcp-pr", "--epsilons", "0", "--duration", "2",
    "--no-cache",
]

#: Packages whose ``__init__`` re-exports lazily (``_EXPORTS``).
LAZY_PACKAGES = (
    "repro", "repro.sim", "repro.net", "repro.core", "repro.tcp",
    "repro.obs", "repro.exec", "repro.experiments", "repro.faults",
)

#: What only a running cell needs: a figure the cache serves in full
#: must load none of it (nor any ``repro.tcp`` module).
CELL_ONLY = (
    "repro.sim.engine", "repro.net.link", "repro.core.pr",
    "repro.checkpoint", "repro.topologies", "repro.app", "repro.faults",
    "repro.obs.instrument", "repro.tcp",
)

#: Runs ``main(argv)`` in a fresh interpreter and prints its modules and
#: each sweep's ``(cached, total)`` cell counts as the last line.
_SPIED_MAIN = """
import json, sys
from repro.cli import main
from repro.exec.runner import ParallelRunner

served = []
run_cells = ParallelRunner.run_cells

def spy(runner, cells):
    try:
        return run_cells(runner, cells)
    finally:
        served.append([runner.last_stats.cached, runner.last_stats.total])

ParallelRunner.run_cells = spy
assert main({argv!r}) == 0
print(json.dumps({{"modules": sorted(sys.modules), "served": served}}))
"""

#: The one-liner CI runs after install (.github/workflows/ci.yml): a
#: whole figure with both former dependencies made unimportable.
BLOCKED_FIG6 = (
    "import sys; sys.modules['networkx'] = sys.modules['numpy'] = None; "
    "from repro.cli import main; "
    f"sys.exit(main({FIG6!r}))"
)


def _child(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC_DIR, env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def _modules_after(statements, tmp_path):
    """``sys.modules`` of a fresh interpreter after ``statements``."""
    done = _child(
        f"import json, sys; {statements}; "
        "print(json.dumps(sorted(sys.modules)))",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _loaded(modules, *packages):
    return sorted(
        name for name in modules
        if any(name == pkg or name.startswith(pkg + ".") for pkg in packages)
    )


def _spied_main(argv, tmp_path):
    done = _child(_SPIED_MAIN.format(argv=argv), tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    return set(report["modules"]), report["served"], done.stdout


def test_package_root_imports_no_subpackage(tmp_path):
    modules = _modules_after("import repro", tmp_path)
    assert "repro" in modules
    assert _loaded(modules, "repro") == ["repro"]


@pytest.mark.parametrize("package", LAZY_PACKAGES[1:])
def test_importing_a_package_loads_only_that_package(package, tmp_path):
    modules = _modules_after(f"import {package}", tmp_path)
    assert _loaded(modules, "repro") == ["repro", package]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves(package):
    module = importlib.import_module(package)
    assert set(module.__all__) - {"__version__"} == set(module._EXPORTS)
    for name in module._EXPORTS:
        assert getattr(module, name) is getattr(
            importlib.import_module(module._EXPORTS[name]), name
        )
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_variants_imports_only_the_registry_closure(tmp_path):
    modules = _modules_after(
        "from repro.cli import main; assert main(['variants']) == 0", tmp_path
    )
    assert "repro.tcp.registry" in modules
    assert _loaded(
        modules, "repro.exec", "repro.experiments", "repro.scenarios",
        "repro.traces", "repro.obs", "repro.lint", "repro.checkpoint",
        "networkx", "numpy",
    ) == []
    # The registry names the senders without importing one.
    assert _loaded(modules, "repro.tcp", "repro.core", "repro.sim") == [
        "repro.tcp", "repro.tcp.registry",
    ]


def test_fig6_imports_no_linter_and_no_trace_pipeline(tmp_path):
    # repro.scenarios is only for ``repro scale``.
    modules = _modules_after(
        f"from repro.cli import main; assert main({FIG6!r}) == 0", tmp_path
    )
    assert "repro.experiments.fig6_multipath" in modules
    assert _loaded(
        modules, "repro.lint", "repro.traces", "repro.scenarios",
        "networkx", "numpy",
    ) == []


@pytest.mark.parametrize("argv", [
    ["fig6", "--protocols", "tcp-pr", "sack", "--epsilons", "0", "500",
     "--duration", "1", "--jobs", "2", "--engine", "pure"],
    ["fig2", "--flows", "2", "--duration", "3", "--window", "2"],
], ids=["fig6", "fig2"])
def test_a_cache_warm_figure_loads_no_simulator(argv, tmp_path):
    """The second run is served in full by the cache (fig2's cells are
    FairnessResult entries), so it plans, loads, assembles and formats
    and imports nothing a cell would."""
    argv = [*argv, "--cache-dir", str(tmp_path / "cache")]
    _, cold_served, cold_out = _spied_main(argv, tmp_path)
    assert cold_served and all(cached == 0 for cached, _ in cold_served)
    warm_modules, warm_served, warm_out = _spied_main(argv, tmp_path)
    assert warm_served and all(cached == total for cached, total in warm_served)
    assert warm_out.splitlines()[:-1] == cold_out.splitlines()[:-1]
    assert _loaded(warm_modules, *CELL_ONLY) == []


def test_a_cache_warm_fig7_plans_its_faults_without_the_injector(tmp_path):
    """fig7 plans its cells from fault schedules, so a warm run needs
    ``repro.faults.schedule`` -- and nothing that arms a schedule."""
    argv = [
        "fig7", "--protocols", "tcp-pr", "--outages", "0", "2",
        "--duration", "8", "--period", "4",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    _spied_main(argv, tmp_path)
    warm_modules, warm_served, _ = _spied_main(argv, tmp_path)
    assert warm_served and all(cached == total for cached, total in warm_served)
    assert "repro.faults.schedule" in warm_modules
    cell_only = [name for name in CELL_ONLY if name != "repro.faults"]
    assert _loaded(warm_modules, "repro.faults.injector", *cell_only) == []


@pytest.mark.parametrize("argv", [
    [*FIG6, "--jobs", "1"],
    ["scale", "--topology", "dumbbell", "--pairs", "2", "--arrival-rate",
     "3", "--size-dist", "fixed", "--mean-size", "20", "--duration", "4",
     "--shards", "1", "--no-cache"],
], ids=["fig6", "scale"])
def test_a_cold_run_loads_no_checkpoint_module(argv, tmp_path):
    """No command snapshots a simulator: crash recovery is the cache."""
    modules = _modules_after(
        f"from repro.cli import main; assert main({argv!r}) == 0", tmp_path
    )
    assert "repro.sim.engine" in modules  # the cells really ran here
    assert _loaded(modules, "repro.checkpoint") == []


def test_a_sweep_served_by_the_cache_imports_no_cell_module(tmp_path):
    cells = (
        "cells = [SweepCell(key=k, func='repro.exec.testing:ok_cell', "
        "params={'value': k}) for k in (1, 2)]"
    )
    modules = _modules_after(
        "from repro.exec.cache import ResultCache; "
        "from repro.exec.runner import ParallelRunner; "
        "from repro.exec.spec import SweepCell; "
        f"cache = ResultCache({str(tmp_path / 'cache')!r}); {cells}; "
        "[cache.store(cell, {'stored': cell.key}) for cell in cells]; "
        "runner = ParallelRunner(cache=cache); "
        "values = runner.run_cells(cells); "
        "assert values == {1: {'stored': 1}, 2: {'stored': 2}}, values; "
        "assert runner.last_stats.cached == 2, runner.last_stats",
        tmp_path,
    )
    assert "repro.exec.testing" not in modules


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cold_sweep_with_a_typo_fails_before_any_cell_runs(jobs, tmp_path):
    cache = ResultCache(tmp_path)
    served = SweepCell(key="served", func="repro.exec.testing:ok_cell")
    cache.store(served, {"value": 1})
    cells = [
        served,
        # Would fail the sweep with a SweepError had it run.
        SweepCell(key="boom", func="repro.exec.testing:boom_cell"),
        SweepCell(key="typo", func="repro.exec.testing:ok_cel"),
    ]
    with pytest.raises(ValueError, match="ok_cel"):
        ParallelRunner(jobs=jobs, cache=cache).run_cells(cells)
    assert cache.stats.stores == 1  # the seeding store only


def test_fig6_runs_with_networkx_and_numpy_unimportable(tmp_path):
    done = _child(BLOCKED_FIG6, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Figure 6" in done.stdout


def test_ci_runs_the_blocked_modules_one_liner():
    workflow = os.path.join(
        os.path.dirname(SRC_DIR), ".github", "workflows", "ci.yml"
    )
    with open(workflow, encoding="utf-8") as handle:
        assert BLOCKED_FIG6 in handle.read()


# ----------------------------------------------------------------------
# One command materialised == that command in the complete parser
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [name for name, _, _ in COMMANDS])
def test_command_help_equals_the_complete_parsers(name, capsys):
    with pytest.raises(SystemExit) as complete:
        build_parser().parse_args([name, "--help"])
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit) as single:
        main([name, "--help"])
    assert capsys.readouterr().out == expected
    assert complete.value.code == single.value.code == 0
    assert f"repro-experiments {name}" in expected


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    listing = " ".join(capsys.readouterr().out.split())
    assert len(COMMANDS) == 12
    for name, help_line, _ in COMMANDS:
        assert f"{name} {help_line}" in listing
