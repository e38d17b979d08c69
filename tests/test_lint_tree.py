"""Tier-1 static-analysis gates over the real source tree.

``test_tree_is_clean`` is the enforcement point for the lint catalog:
``python -m repro lint src/repro`` must exit 0, i.e. every violation in
the tree is either fixed or carries a reasoned suppression pragma.  The
mypy strict-core check runs only when mypy is importable (it is an
optional ``[dev]`` extra; CI always has it).
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"


@pytest.mark.lint
def test_tree_is_clean():
    findings = lint_paths([str(SRC_TREE)])
    assert not findings, "lint findings in src/repro:\n" + "\n".join(
        finding.format() for finding in findings
    )


@pytest.mark.lint
def test_tree_is_deep_clean():
    # The whole-program passes (interprocedural taint REP11x, the
    # C-mirror / obs-schema drift checks REP4xx) must also
    # hold over the real tree.  Runs through the default on-disk cache,
    # so a warm checkout re-verifies in milliseconds.
    from repro.lint import run_analysis

    result = run_analysis([str(SRC_TREE)], deep=True)
    assert not result.errors, result.errors
    assert not result.findings, "deep lint findings in src/repro:\n" + "\n".join(
        finding.format() for finding in result.findings
    )


@pytest.mark.lint
def test_cli_lint_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(SRC_TREE)],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


@pytest.mark.lint
def test_cli_lint_flags_bad_file(tmp_path):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "REP101" in proc.stdout


@pytest.mark.lint
def test_mypy_strict_core():
    pytest.importorskip("mypy", reason="mypy is a [dev] extra; CI installs it")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
