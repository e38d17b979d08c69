"""Incremental-cache behavior of ``repro lint`` plus the CLI contract
(exit codes, SARIF output, stats channel).

The cache tests drive :func:`repro.lint.run_analysis` over a synthetic
three-module call chain (``c -> b -> a``) with a cache dir in
``tmp_path``: a second identical run must do zero re-analysis, and an
edit must invalidate exactly the edited module plus its transitive
dependents — nothing else.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import run_analysis, to_sarif
from repro.lint.findings import Finding

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI_ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}

CHAIN = {
    "src/repro/core/a.py": """
        def base(x):
            return x + 1
    """,
    "src/repro/core/b.py": """
        from repro.core.a import base


        def mid(x):
            return base(x)
    """,
    "src/repro/core/c.py": """
        from repro.core.b import mid


        def top(x):
            return mid(x)
    """,
}


def write_chain(tmp_path):
    for rel, content in CHAIN.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return tmp_path / "src" / "repro"


def analyze(pkg, cache_dir):
    result = run_analysis(
        [str(pkg)],
        deep=True,
        use_cache=True,
        cache_dir=str(cache_dir),
        jobs=1,
    )
    assert not result.errors, result.errors
    return result


def test_second_run_does_no_reanalysis(tmp_path):
    pkg = write_chain(tmp_path)
    cache_dir = tmp_path / "cache"

    cold = analyze(pkg, cache_dir)
    assert cold.stats.parse_misses == 3
    assert cold.stats.parse_hits == 0
    assert cold.stats.deep_misses > 0

    warm = analyze(pkg, cache_dir)
    assert warm.stats.parse_hits == 3
    assert warm.stats.parse_misses == 0
    assert warm.stats.deep_misses == 0
    assert warm.stats.reanalyzed == []
    # Identical results either way.
    cold_records = [f.to_record() for f in cold.findings]
    warm_records = [f.to_record() for f in warm.findings]
    assert warm_records == cold_records


def test_edit_invalidates_only_transitive_dependents(tmp_path):
    pkg = write_chain(tmp_path)
    cache_dir = tmp_path / "cache"
    analyze(pkg, cache_dir)

    # Editing the leaf everyone depends on re-analyzes the whole chain.
    leaf = pkg / "core" / "a.py"
    leaf.write_text(leaf.read_text() + "\n\ndef extra():\n    return 0\n")
    after_leaf = analyze(pkg, cache_dir)
    assert after_leaf.stats.parse_misses == 1  # only a.py re-parsed
    assert sorted(after_leaf.stats.reanalyzed) == [
        "core/a.py",
        "core/b.py",
        "core/c.py",
    ]

    # Editing the top of the chain touches nothing else.
    top = pkg / "core" / "c.py"
    top.write_text(top.read_text() + "\n\ndef extra_top():\n    return 0\n")
    after_top = analyze(pkg, cache_dir)
    assert after_top.stats.parse_misses == 1
    assert after_top.stats.reanalyzed == ["core/c.py"]


def test_cache_disabled_reports_all_misses(tmp_path):
    pkg = write_chain(tmp_path)
    result = run_analysis(
        [str(pkg)], deep=True, use_cache=False, jobs=1
    )
    assert not result.stats.enabled
    assert result.stats.parse_hits == 0
    assert result.stats.deep_hits == 0


# ----------------------------------------------------------------------
# CLI contract: exit codes, SARIF, stats
# ----------------------------------------------------------------------
def test_cli_exit_two_on_internal_error(tmp_path, monkeypatch, capsys):
    import repro.lint
    from repro import cli
    from repro.lint.deep import AnalysisResult

    def broken(paths, **kwargs):
        return AnalysisResult(errors=["src/repro/x.py: ValueError: boom"])

    monkeypatch.setattr(repro.lint, "run_analysis", broken)
    rc = cli.main(["lint", str(tmp_path)])
    assert rc == 2
    assert "lint internal error" in capsys.readouterr().err


def test_cli_sarif_output_and_stats(tmp_path):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "lint", str(tmp_path),
            "--format", "sarif", "--no-cache", "--stats",
        ],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=CLI_ENV,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    sarif = json.loads(proc.stdout)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    # The catalog ships both the shallow and the deep families.
    assert {"REP101", "REP111", "REP401", "REP403"} <= rule_ids
    results = run["results"]
    assert any(r["ruleId"] == "REP101" for r in results)
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1
    assert region["startColumn"] >= 1
    stats_lines = [
        line for line in proc.stderr.splitlines()
        if line.startswith("lint-stats: ")
    ]
    assert len(stats_lines) == 1
    stats = json.loads(stats_lines[0][len("lint-stats: "):])
    assert stats["enabled"] is False


def test_to_sarif_embeds_trace_in_message():
    finding = Finding(
        rule="taint-state",
        code="REP111",
        path="src/repro/tcp/x.py",
        line=5,
        col=8,
        message="nondeterministic value stored in component state",
        trace=("via jitter() at src/repro/tcp/y.py:7",),
    )
    sarif = to_sarif([finding])
    result = sarif["runs"][0]["results"][0]
    assert result["ruleId"] == "REP111"
    assert "via jitter()" in result["message"]["text"]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 5, "startColumn": 9}
