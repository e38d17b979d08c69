"""Parent side of the harness: spawn, time from outside, summarize.

One load-generating process; workloads run one at a time; every round
is a fresh subprocess tree measured with ``os.wait4`` (wall from spawn
to exit, user+sys CPU and peak RSS of the tree).  The harness process
never imports ``repro``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench import OUT, ROOT, SRC, build, clock
from bench.metrics import END_TO_END, summarize
from bench.workloads import (
    WARM_SEED,
    WORKLOADS,
    Workload,
    cli_commands,
    collect_cli,
    fig6_argv,
    timed_commands,
    traced_cell_argv,
)
from bench.digest import result_digest

#: Cache-warm ``repro fig6`` invocations behind one ``cli_warm_s`` value.
WARM_SAMPLES = 7
#: ``repro variants`` invocations that open every round (import warm-up;
#: each one is a ``cli_startup_s`` sample).
WARMUPS_PER_ROUND = 2

METHOD = (
    "host time; one harness process, workloads one at a time, each round "
    "a fresh subprocess tree (wall spawn->exit, cpu and peak RSS from "
    "os.wait4); engine pinned (pure, compiled only for mesh_reorder_c); "
    "in-process wall_s is the Network.run call only; every round starts "
    f"with {WARMUPS_PER_ROUND} `python -m repro variants` (import warm-up, "
    "the cli_startup_s samples); cli_warm_s is the median of "
    f"{WARM_SAMPLES} cache-warm `repro fig6` runs; reported values are "
    "medians over rounds"
)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # Engine choice is explicit everywhere; never inherit one.
    env.pop("REPRO_ENGINE", None)
    return env


@dataclass
class Child:
    """One finished subprocess tree, measured from outside."""

    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str

    def last_json(self) -> Dict[str, Any]:
        return json.loads(self.stdout.strip().splitlines()[-1])


def run_child(argv: Sequence[str], cwd: Path) -> Child:
    """Run ``python <argv>`` to completion and measure its process tree.

    Standard error goes to ``stderr.txt`` in ``cwd`` (never a pipe the
    child could block on).
    """
    with open(cwd / "stderr.txt", "ab") as errors:
        started = clock.now()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=errors,
        )
        assert proc.stdout is not None
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = clock.now() - started
        proc.stdout.close()
    # Already reaped: stop Popen from waiting again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        status=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout.decode("utf-8", "replace"),
    )


def stderr_tail(cwd: Path) -> str:
    try:
        return (cwd / "stderr.txt").read_text(errors="replace")[-1500:]
    except OSError:
        return ""


@dataclass
class Round:
    """One round of one workload."""

    workload: str
    checks: Dict[str, bool]
    digest: str = ""
    counts: Dict[str, float] = field(default_factory=dict)
    #: End-to-end samples of this round (absent when the round failed).
    samples: Dict[str, float] = field(default_factory=dict)
    #: ``cli_startup_s`` samples: the round's import warm-ups.
    startup_s: List[float] = field(default_factory=list)
    total_s: float = 0.0
    error: str = ""


class Session:
    """Temp space plus the measurements every workload shares."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
        #: workload -> digest of its first round (what later rounds and
        #: the other engine must reproduce).
        self.digests: Dict[str, str] = {}
        self._dirs = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def scratch(self) -> Path:
        self._dirs += 1
        path = self.tmp / f"r{self._dirs}"
        path.mkdir()
        return path

    # ------------------------------------------------------------------
    def prepare(self, workload: Workload) -> Optional[str]:
        """One-off set-up; returns an error text when it cannot be done."""
        if workload.engine == "compiled":
            built = build.ensure_built()
            if not built["ok"]:
                return f"compiled engine not built: {built['error']}"
        return None

    def cli_warm(self) -> List[float]:
        """Wall seconds of cache-warm ``repro fig6`` runs.

        The cache lives in ``bench/out`` and is filled once per checkout
        by a cold run with a fixed seed: a warm run loads 18 cells and
        prints the report, whatever the seed was.
        """
        warm = OUT / ("warm-smoke" if self.smoke else "warm")
        size = WORKLOADS["fig6_cli"].sized(self.smoke)
        argv = ["-m", "repro"] + fig6_argv(
            WARM_SEED, size, 2, warm / "cache", warm / "fig6.json"
        )
        scratch = self.scratch()
        if not (warm / "fig6.json").exists():
            shutil.rmtree(warm, ignore_errors=True)
            cold = run_child(argv, scratch)
            if cold.status != 0:
                raise RuntimeError(
                    f"could not fill the warm cache: {stderr_tail(scratch)}"
                )
        walls = []
        for _ in range(WARM_SAMPLES):
            child = run_child(argv, scratch)
            if child.status != 0:
                raise RuntimeError(
                    f"cache-warm fig6 failed: {stderr_tail(scratch)}"
                )
            walls.append(child.wall_s)
        return walls

    # ------------------------------------------------------------------
    def round(self, workload: Workload) -> Round:
        """One round: import warm-up, then the workload in a fresh tree."""
        started = clock.now()
        scratch = self.scratch()
        warmups = [
            run_child(["-m", "repro", "variants"], scratch)
            for _ in range(WARMUPS_PER_ROUND)
        ]
        if any(child.status != 0 for child in warmups):
            return self._failed(workload, scratch, started, "warm-up")
        warmup_s = sum(child.wall_s for child in warmups)
        if workload.kind == "inproc":
            argv = [
                "-m", "bench.worker", "round",
                "--workload", workload.name,
                "--seed", str(self.seed),
            ] + (["--smoke"] if self.smoke else [])
            child = run_child(argv, scratch)
            if child.status != 0:
                return self._failed(workload, scratch, started, "round")
            report = child.last_json()
            checks = {"exit_0": True, **report["checks"]}
            digest, counts = report["digest"], report["counts"]
            wall_s, cpu_s, rss_mb = report["wall_s"], child.cpu_s, child.rss_mb
            outside_s = child.wall_s - report["wall_s"]
        else:
            set_up = clock.now()
            commands = cli_commands(
                workload.name,
                self.seed,
                workload.sized(self.smoke),
                workload.jobs,
                scratch,
            )
            outside_s = clock.now() - set_up
            children = []
            for argv in commands:
                child = run_child(["-m", "repro", *argv], scratch)
                if child.status != 0:
                    return self._failed(workload, scratch, started, argv[0])
                children.append(child)
            outputs, checks, counts = collect_cli(
                workload.name,
                scratch,
                [child.stdout.replace(str(scratch), "<tmp>") for child in children],
                self.smoke,
            )
            checks = {"exit_0": True, **checks}
            digest = result_digest(outputs)
            timed = [children[i] for i in timed_commands(workload.name)]
            wall_s = sum(child.wall_s for child in timed)
            cpu_s = sum(child.cpu_s for child in timed)
            rss_mb = max(child.rss_mb for child in timed)
        checks.update(self._digest_checks(workload, digest))
        shutil.rmtree(scratch, ignore_errors=True)
        return Round(
            workload=workload.name,
            checks=checks,
            digest=digest,
            counts=counts,
            samples={
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "peak_rss_mb": rss_mb,
                "setup_s": warmup_s + outside_s,
            },
            startup_s=[child.wall_s for child in warmups],
            total_s=clock.now() - started,
        )

    def _failed(
        self, workload: Workload, scratch: Path, started: float, what: str
    ) -> Round:
        return Round(
            workload=workload.name,
            checks={"exit_0": False},
            total_s=clock.now() - started,
            error=f"{what} failed: {stderr_tail(scratch)}",
        )

    def _digest_checks(self, workload: Workload, digest: str) -> Dict[str, bool]:
        """Rounds repeat exactly; the compiled engine matches the pure one."""
        first = self.digests.setdefault(workload.name, digest)
        checks = {"digest_repeats": digest == first}
        if workload.engine == "compiled" and "mesh_reorder" in self.digests:
            checks["digest_matches_pure"] = (
                digest == self.digests["mesh_reorder"]
            )
        return checks

    def pure_reference(self) -> Round:
        """An untimed ``mesh_reorder`` round: the digest (and the base of
        ``cext.speedup``) that ``mesh_reorder_c`` is held against."""
        return self.round(WORKLOADS["mesh_reorder"])


# ----------------------------------------------------------------------
def summarize_workload(
    rounds: Sequence[Round], warm_walls: Sequence[float]
) -> Dict[str, Any]:
    """Median, quartiles and samples of every end-to-end metric."""
    good = [r for r in rounds if r.samples]
    metrics: Dict[str, Any] = {}
    for name, unit in END_TO_END:
        if name == "cli_warm_s":
            values = list(warm_walls)
        elif name == "cli_startup_s":
            values = [wall for r in good for wall in r.startup_s]
        else:
            values = [r.samples[name] for r in good]
        if values:
            metrics[name] = summarize(values, unit)
    checks = [ok for r in rounds for ok in r.checks.values()]
    return {
        "metrics": metrics,
        "attempted": len(checks),
        "failed": sum(1 for ok in checks if not ok),
        "digest": good[0].digest if good else "",
        "counts": good[0].counts if good else {},
        "rounds": [
            {
                "checks": r.checks,
                "digest": r.digest,
                "samples": r.samples,
                "startup_s": r.startup_s,
                "error": r.error,
            }
            for r in rounds
        ],
    }


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------
#: Isolated layer drivers, each taken in one workload's traced run:
#: ``workload -> [(probe name, file of the traced pass it reads)]``.
HOME_PROBES: Dict[str, List[Any]] = {
    "pr_bulk": [("kernel_pure", None), ("profile", None), ("checkpoint", None)],
    "mesh_reorder_c": [("kernel_compiled", None)],
    "fig6_cli": [("cli_parse", None), ("experiments", "fig6.json")],
    "scale_fattree": [("flows", "scenario.json")],
    "traced_cell": [("traces", "trace.jsonl")],
}


def _median_wall(session: Session, argv: Sequence[str], runs: int = 3) -> float:
    scratch = session.scratch()
    return statistics.median(
        run_child(argv, scratch).wall_s for _ in range(runs)
    )


def _fig6_extras(
    session: Session, workload: Workload, trace: Dict[str, Any], scratch: Path
) -> Dict[str, float]:
    loads = sum(
        row[2] - row[1] for row in trace["spans"] if row[0] == "exec.cache_load"
    )
    return {
        # Only the last (cache-warm) command's loads are hits.
        "exec.cache_get_s": loads - trace["marks"]["cache_load_before_last"],
        "cli.import_s": _median_wall(session, ["-c", "import repro.cli"])
        - _median_wall(session, ["-c", "pass"]),
    }


def _scale_extras(
    session: Session, workload: Workload, trace: Dict[str, Any], scratch: Path
) -> Dict[str, float]:
    shards = trace["cell_walls"][0]
    return {
        "scenarios.shard_s_max": max(shards),
        "scenarios.shard_s_sum": sum(shards),
    }


def _traced_cell_extras(
    session: Session, workload: Workload, trace: Dict[str, Any], scratch: Path
) -> Dict[str, float]:
    seed, size = session.seed, workload.sized(session.smoke)
    observed = ["-m", "repro", *traced_cell_argv(seed, size, scratch)]
    detached = ["-m", "repro", *traced_cell_argv(seed, size, None)]
    return {
        "obs.attach_overhead_s": _median_wall(session, observed)
        - _median_wall(session, detached)
    }


#: Measurements only one workload's traced run takes, beside its probes.
HOME_EXTRAS: Dict[str, Any] = {
    "fig6_cli": _fig6_extras,
    "scale_fattree": _scale_extras,
    "traced_cell": _traced_cell_extras,
}


def trace_workload(session: Session, workload: Workload) -> Dict[str, Any]:
    """One untraced reference round, one traced pass, the home probes.

    Returns ``{"metrics", "checks", "trace", "reference"}``; ``metrics``
    holds a value for every per-layer metric.
    """
    from bench.metrics import PER_LAYER
    from bench.tracing import layer_metrics

    flags = ["--seed", str(session.seed)] + (["--smoke"] if session.smoke else [])
    # The pure round first: its digest is what the compiled one must match.
    pure = (
        session.pure_reference() if workload.engine == "compiled" else None
    )
    reference = session.round(workload)
    scratch = session.scratch()
    child = run_child(
        ["-m", "bench.worker", "traced", "--workload", workload.name,
         "--tmp", str(scratch), *flags],
        scratch,
    )
    if child.status != 0 or not reference.samples:
        raise RuntimeError(
            f"traced pass of {workload.name} failed: "
            f"{reference.error or stderr_tail(scratch)}"
        )
    trace = child.last_json()
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    # Host-dependent counters (worker RSS) come from the untraced round.
    metrics.update(layer_metrics(trace, {**trace["counts"], **reference.counts}))
    for probe, needs in HOME_PROBES.get(workload.name, []):
        argv = ["-m", "bench.worker", "probe", "--name", probe,
                "--tmp", str(scratch), *flags]
        if needs is not None:
            argv += ["--input", str(scratch / needs)]
        probed = run_child(argv, scratch)
        if probed.status != 0:
            raise RuntimeError(f"probe {probe} failed: {stderr_tail(scratch)}")
        metrics.update(probed.last_json())

    wall_s, cpu_s = reference.samples["wall_s"], reference.samples["cpu_s"]
    if workload.kind == "inproc":
        # The traced pass is pure: compare it with the pure round.
        base = pure.samples["wall_s"] if pure is not None else wall_s
        metrics["trace.overhead_ratio"] = trace["run_wall_s"] / base
    else:
        # Traced CLI commands run in-process at --jobs 1, so the base is
        # the untraced round's CPU seconds, not its wall.
        mains = [row[2] - row[1] for row in trace["spans"] if row[0] == "cli.main"]
        timed = sum(mains[i] for i in timed_commands(workload.name))
        metrics["trace.overhead_ratio"] = timed / cpu_s
    if workload.jobs > 1:
        metrics["exec.parallel_eff"] = cpu_s / (workload.jobs * wall_s)
    if pure is not None:
        metrics["cext.build_s"] = build.ensure_built()["build_s"]
        metrics["cext.speedup"] = pure.samples["wall_s"] / wall_s
    extras = HOME_EXTRAS.get(workload.name)
    if extras is not None:
        metrics.update(extras(session, workload, trace, scratch))
    checks = {
        **reference.checks,
        **{f"traced_{name}": ok for name, ok in trace["checks"].items()},
        "traced_digest_matches": trace["digest"] == reference.digest,
    }
    shutil.rmtree(scratch, ignore_errors=True)
    return {
        "metrics": metrics,
        "checks": checks,
        "trace": trace,
        "reference": reference.samples,
    }
