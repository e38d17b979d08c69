"""Crash-safe file replacement: temp file in the target directory, then
``os.replace``.

Readers see either the old file or the complete new one, never a torn
write, and concurrent writers of the same path cannot interleave (each
writes its own temp file; the last rename wins).  The result cache, the
lint cache and the checkpoint container all write through here.
"""

from __future__ import annotations

import os
import tempfile
from typing import BinaryIO, Callable, Union

PathLike = Union[str, "os.PathLike[str]"]


def atomic_write(
    path: PathLike, write: Callable[[BinaryIO], object], *, durable: bool
) -> None:
    """Replace ``path`` with whatever ``write(handle)`` writes.

    ``write`` receives a binary file open on a fresh ``*.tmp`` sibling
    of ``path`` (parent directories are created).  If it — or the
    rename — raises, the temp file is unlinked, ``path`` is left
    untouched and the exception propagates.

    Args:
        durable: fsync the file before the rename and the directory
            after it, so the replacement survives power loss
            (checkpoints).  Caches pass False: a lost entry only costs
            a recomputation.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
