"""What each entry point imports, asserted on ``sys.modules``, never on time.

Start-up cost is import cost, so the guarantee worth pinning is the
import closure: the package root loads nothing, a command loads only
its own command module's needs, and no run needs a third-party module.
Every closure case runs in a fresh interpreter (this process has long
since imported everything).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import COMMANDS, build_parser, main

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

FIG6 = [
    "fig6", "--protocols", "tcp-pr", "--epsilons", "0", "--duration", "2",
    "--no-cache",
]

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


def test_package_root_imports_no_subpackage(tmp_path):
    modules = _modules_after("import repro", tmp_path)
    assert "repro" in modules
    assert _loaded(modules, "repro") == ["repro"]


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


def test_fig6_imports_no_linter_and_no_trace_pipeline(tmp_path):
    # repro.checkpoint is imported by repro.experiments.fig6_multipath
    # itself (the @checkpointable cell), so it is part of what fig6
    # uses; repro.scenarios is only for ``repro scale``.
    modules = _modules_after(
        f"from repro.cli import main; assert main({FIG6!r}) == 0", tmp_path
    )
    assert "repro.experiments.fig6_multipath" in modules
    assert _loaded(
        modules, "repro.lint", "repro.traces", "repro.scenarios",
        "networkx", "numpy",
    ) == []


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
    assert len(COMMANDS) == 13
    for name, help_line, _ in COMMANDS:
        assert f"{name} {help_line}" in listing
