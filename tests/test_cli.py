"""Tests for the repro-experiments CLI."""

import json
import os

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_variants_listing(capsys):
    assert main(["variants"]) == 0
    out = capsys.readouterr().out
    assert "tcp-pr" in out
    assert "tdfr" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["figure-nine"])


def test_fig2_tiny_run(capsys):
    assert main(["fig2", "--flows", "2", "--seed", "1", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "dumbbell" in out


def test_fig6_tiny_run(capsys):
    assert main(["fig6", "--epsilons", "500", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "tcp-pr" in out


def test_compare_tiny_run(capsys):
    assert main([
        "compare", "--variants", "tcp-pr", "--epsilon", "500", "--no-cache",
    ]) == 0
    out = capsys.readouterr().out
    assert "tcp-pr" in out
    assert "Mbps" in out


def test_fig6_topology_choice_validated():
    with pytest.raises(SystemExit):
        main(["fig2", "--topology", "ring"])


# ----------------------------------------------------------------------
# Grid and duration flags are validated before any cell runs
# ----------------------------------------------------------------------
@pytest.fixture
def no_cells(monkeypatch):
    from repro.exec.runner import ParallelRunner

    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(ParallelRunner, "run", refuse)
    monkeypatch.setattr(ParallelRunner, "run_cells", refuse)


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fig2", "--flows"],
    ["fig3", "--bandwidths"],
    ["fig4", "--alphas"],
    ["fig4", "--betas"],
    ["fig6", "--epsilons"],
    ["fig6", "--protocols", "--epsilons", "0", "--duration", "1"],
    ["fig7", "--outages"],
    ["fig7", "--protocols"],
])
def test_empty_grid_flag_is_a_usage_error(argv, no_cells, capsys):
    err = _usage_error([*argv, "--no-cache"], capsys)
    assert "expected at least one argument" in err


@pytest.mark.parametrize("argv", [
    ["fig2", "--duration", "0"],
    ["fig2", "--window", "-1"],
    ["fig3", "--window", "0"],
    ["fig4", "--duration", "-5"],
    ["fig6", "--protocols", "tcp-pr", "--epsilons", "0", "--duration", "0"],
    ["fig7", "--duration", "0"],
    ["fig7", "--period", "0"],
    ["compare", "--duration", "0"],
])
def test_non_positive_duration_is_a_usage_error(argv, no_cells, capsys):
    err = _usage_error([*argv, "--no-cache"], capsys)
    assert "must be > 0" in err


@pytest.mark.parametrize("argv", [
    ["fig2", "--flows", "4", "--duration", "30"],  # the preset window, 30
    ["fig3", "--bandwidths", "10", "--duration", "5", "--window", "9"],
    ["fig4", "--alphas", "0.99", "--betas", "3", "--duration", "5",
     "--window", "5"],
])
def test_window_not_shorter_than_duration_is_a_usage_error(
    argv, no_cells, monkeypatch, capsys
):
    from repro.exec.runner import ParallelRunner

    def refuse(*args, **kwargs):
        raise AssertionError("a runner was built")

    monkeypatch.setattr(ParallelRunner, "__init__", refuse)
    err = _usage_error([*argv, "--no-cache"], capsys)
    assert err.startswith(f"usage: repro-experiments {argv[0]} ")
    assert "must be shorter than --duration" in err


def test_window_usage_error_names_a_preset_value(no_cells, capsys):
    err = _usage_error(["fig2", "--duration", "30", "--no-cache"], capsys)
    assert "--window (30 s, preset) must be shorter than --duration (30 s)" in err


# ----------------------------------------------------------------------
# Mid-cell checkpointing is gone: the result cache is crash recovery
# ----------------------------------------------------------------------
SWEEP_COMMANDS = ["fig2", "fig3", "fig4", "fig6", "fig7", "compare", "scale"]


@pytest.mark.parametrize(
    "flag", [["--checkpoint-every", "1"], ["--resume"]],
    ids=["checkpoint-every", "resume"],
)
@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_removed_checkpoint_flags_are_usage_errors(command, flag, no_cells, capsys):
    err = _usage_error([command, *flag, "--no-cache"], capsys)
    assert "unrecognized arguments" in err
    assert flag[0] in err


def test_removed_reap_interval_is_a_usage_error(no_cells, capsys):
    """Shards retire each flow at its last ACK; the reaper's period is gone."""
    err = _usage_error(["scale", "--reap-interval", "1", "--no-cache"], capsys)
    assert "unrecognized arguments: --reap-interval 1" in err


def test_ckpt_is_not_a_command(capsys):
    err = _usage_error(["ckpt", "inspect", "x"], capsys)
    assert "invalid choice: 'ckpt'" in err


# ----------------------------------------------------------------------
# Executor flags: --jobs / --no-cache / --cache-dir / --json
# ----------------------------------------------------------------------
def _fig4_tiny(*extra):
    return [
        "fig4", "--alphas", "0.995", "--betas", "3", "--flows", "4",
        "--duration", "6", "--window", "4", *extra,
    ]


def test_fig6_parallel_matches_serial(capsys):
    argv = [
        "fig6", "--protocols", "tcp-pr", "--epsilons", "0", "500",
        "--duration", "2", "--no-cache",
    ]
    assert main([*argv, "--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main([*argv, "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert serial_out == parallel_out


def test_fig4_cache_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(_fig4_tiny("--cache-dir", cache_dir)) == 0
    cold_out = capsys.readouterr().out
    entries = list((tmp_path / "cache").rglob("*.json"))
    assert entries, "the run must populate the cache"

    assert main(_fig4_tiny("--cache-dir", cache_dir)) == 0
    warm_out = capsys.readouterr().out
    assert warm_out == cold_out


def test_no_cache_leaves_no_cache_dir(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(_fig4_tiny("--no-cache", "--cache-dir", str(cache_dir))) == 0
    capsys.readouterr()
    assert not cache_dir.exists()


def test_fig6_json_dump(tmp_path, capsys):
    out_path = tmp_path / "fig6.json"
    assert main([
        "fig6", "--protocols", "tcp-pr", "--epsilons", "500",
        "--duration", "2", "--no-cache", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert str(out_path) in out
    data = json.loads(out_path.read_text())
    assert "tcp-pr" in data["throughput_mbps"]
    assert "500.0" in data["throughput_mbps"]["tcp-pr"]


def test_variants_json_dump(tmp_path, capsys):
    out_path = tmp_path / "variants.json"
    assert main(["variants", "--json", str(out_path)]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert "tcp-pr" in data["variants"]


def test_compare_json_dump(tmp_path, capsys):
    out_path = tmp_path / "compare.json"
    assert main([
        "compare", "--variants", "tcp-pr", "--epsilon", "500",
        "--duration", "2", "--no-cache", "--json", str(out_path),
    ]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert data["epsilon"] == 500.0
    assert data["throughput_mbps"]["tcp-pr"] > 0


def test_every_subcommand_exposes_executor_flags():
    parser = build_parser()
    for command in ("variants", "fig2", "fig3", "fig4", "fig6", "fig7",
                    "compare"):
        args = parser.parse_args([
            command, "--jobs", "3", "--no-cache", "--cache-dir", "/tmp/x",
        ])
        assert args.jobs == 3
        assert args.no_cache
        assert args.cache_dir == "/tmp/x"
        assert args.json is None
        assert args.keep_going is False
        assert args.cell_timeout is None
        assert args.retries == 0


# ----------------------------------------------------------------------
# Failure-policy flags: --keep-going / --fail-fast / --cell-timeout
# ----------------------------------------------------------------------
def _fig7_tiny(*extra):
    return [
        "fig7", "--protocols", "tcp-pr", "--outages", "0", "2",
        "--duration", "8", "--period", "4", *extra,
    ]


def test_fig7_tiny_run(capsys):
    assert main(_fig7_tiny("--no-cache")) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "tcp-pr" in out


def test_fig7_cache_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(_fig7_tiny("--cache-dir", cache_dir)) == 0
    cold_out = capsys.readouterr().out
    assert list((tmp_path / "cache").rglob("*.json"))
    assert main(_fig7_tiny("--cache-dir", cache_dir)) == 0
    assert capsys.readouterr().out == cold_out


def test_keep_going_and_fail_fast_are_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["fig7", "--keep-going", "--fail-fast"]
        )


def test_fig7_keep_going_reports_partial_result(capsys):
    argv = [
        "fig7", "--protocols", "tcp-pr", "nosuch", "--outages", "0",
        "--duration", "4", "--period", "2", "--no-cache", "--keep-going",
    ]
    assert main(argv) == 1  # partial => nonzero exit
    out = capsys.readouterr().out
    assert "Figure 7" in out  # the surviving cells still render
    assert "--" in out  # the failed cell shows as a hole
    assert "cells failed" in out


def test_fig7_fail_fast_aborts_with_error_listing(capsys):
    argv = [
        "fig7", "--protocols", "nosuch", "--outages", "0",
        "--duration", "4", "--period", "2", "--no-cache",
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "sweep failed" in captured.err
    assert "Figure 7" not in captured.out


def test_keep_going_json_dump_includes_failures(tmp_path, capsys):
    out_path = tmp_path / "fig7.json"
    argv = [
        "fig7", "--protocols", "tcp-pr", "nosuch", "--outages", "0",
        "--duration", "4", "--period", "2", "--no-cache", "--keep-going",
        "--json", str(out_path),
    ]
    assert main(argv) == 1
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert data["goodput_mbps"]["tcp-pr"]["0.0"] > 0
    assert data["goodput_mbps"]["nosuch"]["0.0"] is None
    assert any(key.startswith("nosuch") for key in data["failures"])


# ----------------------------------------------------------------------
# Observability flags: --metrics-out / --trace-out / the obs subcommand
# ----------------------------------------------------------------------
def test_every_subcommand_exposes_observability_flags():
    parser = build_parser()
    for command in ("fig2", "fig3", "fig4", "fig6", "fig7", "compare"):
        args = parser.parse_args([
            command, "--metrics-out", "m.jsonl", "--trace-out", "t.jsonl",
        ])
        assert args.metrics_out == "m.jsonl"
        assert args.trace_out == "t.jsonl"


def test_fig7_metrics_out_emits_obs_v1_stream(tmp_path, capsys):
    from repro.obs import read_jsonl

    metrics_path = tmp_path / "m.jsonl"
    assert main(_fig7_tiny(
        "--no-cache", "--metrics-out", str(metrics_path),
    )) == 0
    out = capsys.readouterr().out
    assert f"[metrics written to {metrics_path}]" in out
    records = read_jsonl(metrics_path)
    header = records[0]
    assert header["record"] == "header"
    assert header["schema"] == "repro.obs/v1"
    assert header["command"] == "fig7"
    kinds = {record["record"] for record in records}
    assert kinds == {"header", "metric", "cell", "sweep"}
    names = {r["name"] for r in records if r["record"] == "metric"}
    assert {"flow.cwnd", "flow.ewrtt", "flow.mxrtt"} <= names
    cells = [r for r in records if r["record"] == "cell"]
    assert all(r["attempts"] == 1 and not r["cached"] for r in cells)
    assert records[-1]["record"] == "sweep"


def test_fig7_trace_out_carries_fault_timeline(tmp_path, capsys):
    from repro.obs import read_jsonl

    trace_path = tmp_path / "t.jsonl"
    argv = [
        "fig7", "--protocols", "tcp-pr", "--outages", "1",
        "--duration", "6", "--period", "2", "--no-cache",
        "--trace-out", str(trace_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    records = read_jsonl(trace_path)
    faults = [r for r in records if r["record"] == "fault"]
    assert faults
    assert all("cell" in r for r in faults)


def test_exports_own_up_to_cells_served_from_the_cache(tmp_path, capsys):
    """A warm cache runs nothing, so the trace is header-only; the CLI
    says so instead of only printing "[trace written ...]"."""
    trace_path = tmp_path / "t.jsonl"
    argv = [
        "fig6", "--protocols", "tcp-pr", "--epsilons", "0", "500",
        "--duration", "1", "--cache-dir", str(tmp_path / "cache"),
        "--trace-out", str(trace_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "from the cache" not in cold
    assert len(trace_path.read_text().splitlines()) > 1
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert len(trace_path.read_text().splitlines()) == 1
    notes = [line for line in warm.splitlines() if "from the cache" in line]
    assert notes == [
        "[2 of 2 cells came from the cache and carry no metric/trace "
        "records; rerun with --no-cache to collect them]"
    ]
    assert warm.index(f"[trace written to {trace_path}]") < warm.index(notes[0])
    # --metrics-out alone gets the same line, once.
    assert main([*argv[:-2], "--metrics-out", str(tmp_path / "m.jsonl")]) == 0
    assert capsys.readouterr().out.count("from the cache") == 1


def test_metrics_collection_does_not_change_the_figure(tmp_path, capsys):
    assert main(_fig7_tiny("--no-cache")) == 0
    plain = capsys.readouterr().out
    assert main(_fig7_tiny(
        "--no-cache", "--metrics-out", str(tmp_path / "m.jsonl"),
    )) == 0
    collected = capsys.readouterr().out
    assert collected.startswith(plain.rstrip("\n").rsplit("\n", 0)[0][:40])
    # The rendered table itself is bit-identical; only the trailing
    # "[metrics written to ...]" line differs.
    assert collected.splitlines()[: len(plain.splitlines())] == plain.splitlines()


def test_obs_summary_subcommand(tmp_path, capsys):
    metrics_path = tmp_path / "m.jsonl"
    assert main(_fig7_tiny(
        "--no-cache", "--metrics-out", str(metrics_path),
    )) == 0
    capsys.readouterr()
    assert main(["obs", "summary", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "schema: repro.obs/v1" in out
    assert "metric=" in out


def test_obs_convert_subcommand(tmp_path, capsys):
    import csv

    metrics_path = tmp_path / "m.jsonl"
    assert main(_fig7_tiny(
        "--no-cache", "--metrics-out", str(metrics_path),
    )) == 0
    capsys.readouterr()
    csv_path = tmp_path / "out.csv"
    assert main(["obs", "convert", str(metrics_path), "-o", str(csv_path)]) == 0
    capsys.readouterr()
    csv.field_size_limit(10_000_000)  # timeseries columns are long JSON arrays
    with csv_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    assert any(row["record"] == "metric" for row in rows)


def test_obs_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["obs"])


# ----------------------------------------------------------------------
# The trace pipeline: trace analyze / replay / convert
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig6_trace(tmp_path_factory):
    """One traced Figure 6 cell, captured through --trace-out."""
    path = tmp_path_factory.mktemp("trace") / "fig6.jsonl"
    assert main([
        "fig6", "--protocols", "tcp-pr", "--epsilons", "4",
        "--duration", "2", "--no-cache", "--trace-out", str(path),
    ]) == 0
    return path


def test_trace_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace"])


def test_trace_subcommands_inherit_the_shared_flag_groups():
    """The parent-parser contract: new subcommands get the full
    execution + observability flag surface by construction."""
    parser = build_parser()
    for argv in (
        ["trace", "analyze", "t.jsonl"],
        ["trace", "replay", "t.jsonl"],
        ["trace", "convert", "t.csv"],
    ):
        args = parser.parse_args([
            *argv, "--jobs", "3", "--no-cache", "--cache-dir", "/tmp/x",
            "--seed", "9", "--metrics-out", "m.jsonl",
        ])
        assert args.jobs == 3
        assert args.no_cache
        assert args.seed == 9
        assert args.metrics_out == "m.jsonl"
        assert args.json is None


def test_trace_analyze_renders_a_report(fig6_trace, capsys):
    assert main(["trace", "analyze", str(fig6_trace)]) == 0
    out = capsys.readouterr().out
    assert "flow=1" in out
    assert "reordered=" in out


def test_trace_bytes_and_analysis_match_the_committed_golden(tmp_path, capsys):
    """tests/golden/trace_cell.json pins one traced cell end to end: the
    --trace-out file byte for byte (sha256) and what `trace analyze`
    prints for it, as the parent of the tuple/streaming rewrite wrote
    them."""
    import hashlib
    from pathlib import Path

    from repro.core import engine_select

    golden = json.loads(
        (Path(__file__).parent / "golden" / "trace_cell.json").read_text()
    )
    trace_path = tmp_path / "T.jsonl"
    with engine_select.use_engine("pure"):  # --engine sticks; undo it
        assert main([*golden["argv"], "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", "analyze", str(trace_path)]) == 0
    data = trace_path.read_bytes()
    assert data.count(b"\n") == golden["trace_lines"]
    assert hashlib.sha256(data).hexdigest() == golden["trace_sha256"]
    assert capsys.readouterr().out == golden["analysis"]


def test_trace_analyze_json_dump(fig6_trace, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main([
        "trace", "analyze", str(fig6_trace), "--json", str(out_path),
    ]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    (flow_key,) = data["flows"]
    flow = data["flows"][flow_key]
    assert flow["unique_arrivals"] > 0
    assert 0.0 <= flow["reorder_ratio"] <= 1.0


def test_trace_analyze_unknown_flow_lists_known_ones(fig6_trace, capsys):
    assert main(["trace", "analyze", str(fig6_trace), "--flow", "42"]) == 1
    err = capsys.readouterr().err
    assert "flows:" in err


def test_trace_replay_round_trip_through_a_saved_profile(
    fig6_trace, tmp_path, capsys
):
    profile_path = tmp_path / "profile.json"
    assert main([
        "trace", "replay", str(fig6_trace), "--flow", "1",
        "--profile-out", str(profile_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "profile" in out
    assert "open-loop replay" in out
    assert profile_path.exists()

    # The saved profile is itself a valid replay input.
    assert main([
        "trace", "replay", str(profile_path), "--variant", "sack",
        "--duration", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "closed-loop replay" in out
    assert "Mbps goodput" in out


def test_trace_replay_rejects_streams_without_sends(tmp_path, capsys):
    from repro.obs import write_jsonl as _write

    path = tmp_path / "empty.jsonl"
    _write([], path, command="test")
    assert main(["trace", "replay", str(path)]) == 1
    assert "cannot build a replay profile" in capsys.readouterr().err


def test_trace_convert_imports_a_csv_capture(tmp_path, capsys):
    csv_path = tmp_path / "capture.csv"
    csv_path.write_text(
        "time,kind,seq,flow\n"
        "0.0,send,0,1\n0.1,send,1,1\n"
        "0.05,recv,0,1\n0.16,recv,1,1\n"
    )
    assert main(["trace", "convert", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "[trace written to" in out
    converted = tmp_path / "capture.jsonl"
    assert main(["trace", "analyze", str(converted)]) == 0
    assert "flow=1" in capsys.readouterr().out


def test_scale_tiny_run(tmp_path, capsys):
    stream = tmp_path / "flows.jsonl"
    spec_out = tmp_path / "scenario.json"
    assert main([
        "scale", "--topology", "dumbbell", "--pairs", "2",
        "--arrival-rate", "3", "--size-dist", "fixed", "--mean-size", "20",
        "--duration", "8", "--shards", "2", "--jobs", "2", "--no-cache",
        "--metrics-out", str(stream), "--spec-out", str(spec_out),
    ]) == 0
    out = capsys.readouterr().out
    assert "Scenario 'scenario'" in out
    assert "2 shard(s)" in out
    records = [json.loads(line) for line in stream.read_text().splitlines()]
    assert records[0]["record"] == "header"
    assert any(record["record"] == "flow" for record in records)

    # The saved spec reproduces the identical run, and the rerun
    # replaces the stream instead of appending to it.
    assert main([
        "scale", "--spec", str(spec_out), "--shards", "2", "--no-cache",
        "--metrics-out", str(stream), "--json", str(tmp_path / "rerun.json"),
    ]) == 0
    rerun = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("Scenario"):
            assert line in rerun
    flows = json.loads((tmp_path / "rerun.json").read_text())["flows"]
    kinds = [json.loads(line)["record"]
             for line in stream.read_text().splitlines()]
    assert kinds.count("header") == 1 and kinds[0] == "header"
    assert kinds.count("flow") == flows > 0


# ----------------------------------------------------------------------
# The export seam the benchmark wraps (bench/tracing.py: obs.export)
# ----------------------------------------------------------------------
def test_every_export_site_goes_through_cli_write_jsonl(
    tmp_path, capsys, monkeypatch
):
    import repro.cli

    original, seen = repro.cli.write_jsonl, []

    def recorder(records, path, **header_fields):
        seen.append((header_fields["command"], os.path.basename(path)))
        return original(records, path, **header_fields)

    monkeypatch.setattr(repro.cli, "write_jsonl", recorder)
    assert main([
        "fig6", "--protocols", "tcp-pr", "--epsilons", "500",
        "--duration", "2", "--no-cache",
        "--metrics-out", str(tmp_path / "fig6-metrics.jsonl"),
        "--trace-out", str(tmp_path / "fig6-trace.jsonl"),
    ]) == 0
    assert main([
        "scale", "--topology", "dumbbell", "--pairs", "1",
        "--arrival-rate", "3", "--size-dist", "fixed", "--mean-size", "10",
        "--duration", "3", "--no-cache",
        "--trace-out", str(tmp_path / "scale-trace.jsonl"),
    ]) == 0
    capsys.readouterr()
    assert seen == [
        ("fig6", "fig6-metrics.jsonl"),
        ("fig6", "fig6-trace.jsonl"),
        ("scale", "scale-trace.jsonl"),
    ]
    assert all((tmp_path / name).stat().st_size for _, name in seen)


def test_parse_time_constants_match_the_packages_they_shadow():
    import repro.cli
    import repro.exec

    assert repro.cli.DEFAULT_CACHE_DIR == repro.exec.DEFAULT_CACHE_DIR
