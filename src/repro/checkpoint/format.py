"""The ``repro.ckpt/v1`` on-disk container: named, CRC'd sections.

Layout (all framing is ASCII so ``head -c`` on a checkpoint is
self-describing)::

    repro.ckpt/v1\\n
    @<name> <length> <crc32>\\n
    <length payload bytes>\\n
    @<name> <length> <crc32>\\n
    <length payload bytes>\\n
    @end\\n

Guarantees:

* **Atomicity** — :func:`write_container` goes through
  :func:`repro.util.atomic.atomic_write` with ``durable=True``: temp
  file in the destination directory, flush + fsync, ``os.replace``
  over the target, directory fsync.  A crash mid-write leaves either
  the old file or no file, never a torn one.
* **Integrity** — every section carries its own CRC32; a mismatch (or
  truncation, or a missing end marker) raises
  :class:`~repro.checkpoint.errors.CheckpointCorruptError` naming the
  failing section, so callers can distinguish "link section rotted"
  from "file half-written".
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import BinaryIO, Dict, List, Mapping, Tuple, Union

from repro.checkpoint.errors import CheckpointCorruptError, CheckpointFormatError
from repro.util.atomic import atomic_write

PathLike = Union[str, Path]

#: First line of every checkpoint file; bump the suffix on breaking
#: container changes (section payload schemas version independently via
#: the ``meta`` section).
MAGIC = b"repro.ckpt/v1\n"
_END = b"@end\n"


def write_container(path: PathLike, sections: Mapping[str, bytes]) -> None:
    """Atomically write ``sections`` to ``path`` (temp + fsync + rename)."""

    def write(handle: BinaryIO) -> None:
        handle.write(MAGIC)
        for name, payload in sections.items():
            _check_section_name(name)
            crc = zlib.crc32(payload)
            handle.write(f"@{name} {len(payload)} {crc}\n".encode("ascii"))
            handle.write(payload)
            handle.write(b"\n")
        handle.write(_END)

    atomic_write(path, write, durable=True)


def read_container(path: PathLike) -> Dict[str, bytes]:
    """Read and verify every section of a checkpoint file.

    Raises:
        CheckpointFormatError: not a ``repro.ckpt/v1`` file.
        CheckpointCorruptError: truncated file, framing damage, or a
            section whose payload fails its CRC (the error names the
            section).
    """
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointFormatError(
                f"{path}: not a repro.ckpt/v1 file (magic {magic!r})"
            )
        sections: Dict[str, bytes] = {}
        while True:
            header = handle.readline()
            if not header:
                raise CheckpointCorruptError(
                    "container", "missing @end marker (truncated file)", str(path)
                )
            if header == _END:
                return sections
            name, length, crc = _parse_header(header, path)
            payload = handle.read(length)
            if len(payload) != length:
                raise CheckpointCorruptError(
                    name,
                    f"truncated payload: expected {length} bytes, got {len(payload)}",
                    str(path),
                )
            if handle.read(1) != b"\n":
                raise CheckpointCorruptError(
                    name, "missing section terminator", str(path)
                )
            actual = zlib.crc32(payload)
            if actual != crc:
                raise CheckpointCorruptError(
                    name, f"CRC mismatch: header {crc}, payload {actual}", str(path)
                )
            if name in sections:
                raise CheckpointCorruptError(
                    name, "duplicate section", str(path)
                )
            sections[name] = payload


def list_sections(path: PathLike) -> List[Tuple[str, int]]:
    """Section names and payload sizes, verifying integrity as a side effect."""
    return [(name, len(payload)) for name, payload in read_container(path).items()]


# ----------------------------------------------------------------------
def _check_section_name(name: str) -> None:
    if not name or " " in name or "\n" in name or not name.isascii():
        raise ValueError(f"invalid section name {name!r}")
    if name == "end":
        raise ValueError("section name 'end' is reserved for the end marker")


def _parse_header(header: bytes, path: Path) -> Tuple[str, int, int]:
    try:
        text = header.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(
            "container", f"undecodable section header {header!r}", str(path)
        ) from exc
    if not text.startswith("@") or not text.endswith("\n"):
        raise CheckpointCorruptError(
            "container", f"malformed section header {text!r}", str(path)
        )
    parts = text[1:-1].split(" ")
    if len(parts) != 3:
        raise CheckpointCorruptError(
            "container", f"malformed section header {text!r}", str(path)
        )
    name = parts[0]
    try:
        length = int(parts[1])
        crc = int(parts[2])
    except ValueError as exc:
        raise CheckpointCorruptError(
            name or "container", f"non-numeric header fields in {text!r}", str(path)
        ) from exc
    if length < 0:
        raise CheckpointCorruptError(name, f"negative length {length}", str(path))
    return name, length, crc
