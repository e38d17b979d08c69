"""Whole-simulator snapshots (``repro.ckpt/v1``).

The one snapshot API is :meth:`Simulator.save_checkpoint(path)
<repro.sim.engine.Simulator.save_checkpoint>` and
:meth:`Simulator.resume(path) <repro.sim.engine.Simulator.resume>`;
this package implements them:

* :func:`save_checkpoint` / :func:`load_checkpoint` and the
  :class:`Checkpoint` handle — atomic writes, per-section CRCs, and a
  bit-identical continuation contract (:mod:`repro.checkpoint.snapshot`);
* the container format (:mod:`repro.checkpoint.format`) and the one
  pickle site (:mod:`repro.checkpoint.codec`);
* typed errors (:mod:`repro.checkpoint.errors`).

No command writes checkpoints: a sweep's crash recovery is its result
cache (a killed sweep run again on the same cache re-runs only the
unfinished cells).  See ``docs/CHECKPOINT.md``.
"""

from repro.checkpoint.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
)
from repro.checkpoint.snapshot import (
    SCHEMA_VERSION,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointFormatError",
    "SCHEMA_VERSION",
    "load_checkpoint",
    "save_checkpoint",
]
