"""Typed errors for the checkpoint subsystem.

Every failure mode a caller can act on gets its own class: a corrupt
file names the failing section (so a resume can report *which* CRC
failed), a format error means the file is not a ``repro.ckpt``
container at all, and the base class covers logical misuse
(incompatible schema versions).
"""

from __future__ import annotations

from typing import Optional


class CheckpointError(Exception):
    """Base class for all checkpoint failures."""


class CheckpointFormatError(CheckpointError):
    """The file is not a ``repro.ckpt`` container (bad magic / framing)."""


class CheckpointCorruptError(CheckpointError):
    """A section failed its integrity check.

    Attributes:
        section: Name of the failing section (``"meta"``, ``"rng"``,
            ``"graph"``, ...) or ``"container"`` when the damage is in
            the framing itself (truncation, missing end marker).
        detail: Human-readable description of the failure.
    """

    def __init__(self, section: str, detail: str, path: Optional[str] = None) -> None:
        self.section = section
        self.detail = detail
        self.path = path
        where = f" in {path}" if path else ""
        super().__init__(f"corrupt checkpoint section {section!r}{where}: {detail}")
