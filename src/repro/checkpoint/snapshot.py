"""Saving, loading and resuming simulator checkpoints.

A checkpoint is a ``repro.ckpt/v1`` container (see
:mod:`repro.checkpoint.format`) with four sections:

``meta``
    JSON header: schema version, package version, engine counters
    (clock, event seq, dispatched/pending events), RNG stream names,
    the next packet uid.  Readable without unpickling anything.
``globals``
    Process-global counters (today: the packet uid counter) that a
    resume in a *fresh process* must restore before dispatching.
``rng``
    The :class:`~repro.sim.rng.RngRegistry`, standalone.
    Redundant with ``graph`` (the registry rides the object graph) but
    independently CRC'd and decodable, so corruption in the big graph
    section never masquerades as silent RNG divergence.
``graph``
    The entire :class:`~repro.sim.engine.Simulator` object graph —
    heap, seq counter, RNG registry, every component the heap reaches,
    and whatever the caller registered by name — in one
    :mod:`repro.checkpoint.codec` payload, preserving shared references
    (see the codec docstring for why one pass matters).

The resume contract is **bit-identical continuation**: running to time
T, checkpointing, and resuming in a new process must produce byte-wise
the same obs/trace output as the uninterrupted run (pinned by
``tests/test_checkpoint_resume.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.checkpoint import codec
from repro.checkpoint.errors import CheckpointCorruptError, CheckpointError
from repro.checkpoint.format import read_container, write_container
from repro.sim.engine import Simulator

PathLike = Union[str, Path]

#: Version of the section *payload* schema (the container frames its own
#: version in the magic line).
SCHEMA_VERSION = 1

_REQUIRED_SECTIONS = ("meta", "globals", "rng", "graph")


class Checkpoint:
    """A loaded checkpoint: parsed meta plus the restored object graph."""

    __slots__ = ("path", "meta", "simulator", "_globals_state")

    def __init__(
        self,
        path: Optional[Path],
        meta: Dict[str, Any],
        simulator: Simulator,
        globals_state: Mapping[str, Any],
    ) -> None:
        self.path = path
        self.meta = meta
        self.simulator = simulator
        self._globals_state = globals_state

    def resume(self) -> Simulator:
        """Arm the restored simulator for continuation and return it.

        Restores the process-global counters captured at save time and,
        when the restored simulator has ``sanitize=True``, audits the
        restored heap (times >= restored clock, live counter matches),
        raising :class:`~repro.sim.errors.InvariantViolation` on damage.
        """
        restore_globals(self._globals_state)
        if self.simulator.sanitize:
            self.simulator._audit_resume()
        return self.simulator

    def __repr__(self) -> str:
        return f"<Checkpoint t={self.meta.get('now')!r} path={str(self.path)!r}>"


def save_checkpoint(
    sim: Simulator, path: PathLike, user_meta: Optional[Mapping[str, Any]] = None
) -> None:
    """Atomically snapshot ``sim`` (its whole object graph) to ``path``."""
    from repro.core.engine_select import EXTENSION_MODULE

    meta: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "package_version": _package_version(),
        # Provenance only: checkpoints are engine-portable (the pickled
        # graph rebuilds on whatever build loads it; docs/COMPILED.md),
        # but knowing which build *wrote* one helps debug perf reports.
        # Classified from the instance, not the global selection — the
        # two can differ under use_engine().
        "engine": (
            "compiled"
            if type(sim).__module__ == EXTENSION_MODULE
            else "pure"
        ),
        "now": sim.now,
        "event_seq": sim.event_seq,
        "dispatched_events": sim.dispatched_events,
        "pending_events": sim.pending_events,
        "rng_streams": sim.rng.names(),
        "globals": dict(snapshot_globals()),
        "user_meta": dict(user_meta) if user_meta else {},
    }
    sections = {
        "meta": json.dumps(meta, sort_keys=True).encode("utf-8"),
        "globals": codec.encode(snapshot_globals()),
        "rng": codec.encode(sim.rng),
        "graph": codec.encode(sim),
    }
    write_container(path, sections)


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read, verify, and fully decode a checkpoint file.

    Raises:
        CheckpointFormatError: not a checkpoint file at all.
        CheckpointCorruptError: framing/CRC/unpickle damage (names the
            failing section) or cross-section disagreement.
        CheckpointError: valid file, unsupported schema version.
    """
    path = Path(path)
    sections = read_container(path)
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise CheckpointCorruptError(
                name, "required section is missing", str(path)
            )
    meta = _parse_meta(sections["meta"], path)
    simulator = codec.decode(sections["graph"], section="graph")
    if not isinstance(simulator, Simulator):
        raise CheckpointCorruptError(
            "graph",
            f"graph decodes to {type(simulator).__name__}, not Simulator",
            str(path),
        )
    globals_state = codec.decode(sections["globals"], section="globals")
    codec.decode(sections["rng"], section="rng")  # integrity only
    # Cross-checks: the cheap meta counters must agree with the decoded
    # graph, otherwise sections were mixed from different snapshots.
    # lint: allow-float-time-eq(integrity cross-check: both values are the same float round-tripped losslessly, not accumulated arithmetic)
    if meta["now"] != simulator.now:
        raise CheckpointCorruptError(
            "graph",
            f"meta says t={meta['now']!r} but graph restored t={simulator.now!r}",
            str(path),
        )
    if meta["pending_events"] != simulator.pending_events:
        raise CheckpointCorruptError(
            "graph",
            f"meta says {meta['pending_events']} pending events but graph "
            f"restored {simulator.pending_events}",
            str(path),
        )
    return Checkpoint(path, meta, simulator, globals_state)


# ----------------------------------------------------------------------
def _parse_meta(payload: bytes, path: Path) -> Dict[str, Any]:
    try:
        meta = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            "meta", f"header is not JSON: {exc}", str(path)
        ) from exc
    if not isinstance(meta, dict):
        raise CheckpointCorruptError(
            "meta", f"header is {type(meta).__name__}, not an object", str(path)
        )
    schema = meta.get("schema")
    if schema != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema {schema!r} "
            f"(this build reads schema {SCHEMA_VERSION})"
        )
    return meta


def _package_version() -> str:
    try:
        import repro

        return str(getattr(repro, "__version__", "unknown"))
    except ImportError:  # pragma: no cover - repro is always importable here
        return "unknown"


# ----------------------------------------------------------------------
# Process-global counters that must survive a resume in a new process.
# ----------------------------------------------------------------------
def snapshot_globals() -> Dict[str, Any]:
    """Capture process-global counters a resumed run depends on.

    Today that is one thing: the packet uid counter
    (:mod:`repro.net.packet`), which keys trace records — a resumed run
    in a fresh process must hand out uids exactly where the snapshot
    left off or trace output diverges from the uninterrupted run.
    """
    from repro.net import packet

    return {"packet_uid": packet.peek_next_uid()}


def restore_globals(state: Mapping[str, Any]) -> None:
    """Restore the counters captured by :func:`snapshot_globals`."""
    from repro.net import packet

    packet.reset_uid_counter(int(state["packet_uid"]))
