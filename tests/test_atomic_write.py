"""``repro.util.atomic.atomic_write`` and its three callers.

The contract under failure is the point: whether the payload write or
the final rename raises, the target keeps its old bytes and no
``*.tmp`` sibling is left behind — for the result cache, the lint cache
and the checkpoint container alike.
"""

import errno
import os

import pytest

from repro.checkpoint.format import read_container, write_container
from repro.exec.cache import ResultCache
from repro.exec.spec import SweepCell
from repro.lint.cache import LintCache
from repro.util import atomic
from repro.util.atomic import atomic_write


def _files(directory):
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(directory)
        for name in names
    )


class _FullDisk:
    """A binary file whose writes fail like a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def _break(monkeypatch, stage):
    """Make the next atomic_write fail in its write or its rename."""
    if stage == "write":
        real_fdopen = os.fdopen
        monkeypatch.setattr(
            atomic.os, "fdopen", lambda fd, mode: _FullDisk(real_fdopen(fd, mode))
        )
    else:

        def refuse(src, dst):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(atomic.os, "replace", refuse)


def test_replaces_content_and_creates_parents(tmp_path):
    target = tmp_path / "a" / "b" / "entry.json"
    for durable, payload in ((False, b"one"), (True, b"two")):
        atomic_write(target, lambda handle: handle.write(payload), durable=durable)
        assert target.read_bytes() == payload
    assert _files(tmp_path) == [str(target)]


def test_non_oserror_from_write_also_cleans_up(tmp_path):
    target = tmp_path / "entry.json"
    target.write_bytes(b"old")

    def write(handle):
        handle.write(b"half")
        raise KeyError("serializer bug")

    with pytest.raises(KeyError):
        atomic_write(target, write, durable=True)
    assert target.read_bytes() == b"old"
    assert _files(tmp_path) == [str(target)]


def _result_cache_store(root):
    cache = ResultCache(root=root, version="test")
    cell = SweepCell(key=1, func="m:f", params={"n": 1}, seed=7)
    return cache.path_for(cell), lambda value: cache.store(cell, value)


def _lint_cache_store(root):
    cache = LintCache(str(root))
    path = cache._entry_path("modules", "k")
    return path, lambda value: cache._store("modules", "k", {"value": value})


def _checkpoint_store(root):
    path = root / "sim.ckpt"
    return path, lambda value: write_container(path, {"meta": repr(value).encode()})


@pytest.mark.parametrize("stage", ["write", "rename"])
@pytest.mark.parametrize(
    "caller, swallows",
    [
        (_result_cache_store, False),
        (_lint_cache_store, True),  # a cache write never fails the lint run
        (_checkpoint_store, False),
    ],
)
def test_failed_store_keeps_old_entry_and_leaves_no_tmp(
    tmp_path, monkeypatch, caller, swallows, stage
):
    path, store = caller(tmp_path)
    store("old")
    before = open(path, "rb").read()
    assert _files(tmp_path) == [str(path)]

    _break(monkeypatch, stage)
    if swallows:
        store("new")
    else:
        with pytest.raises(OSError):
            store("new")
    monkeypatch.undo()

    assert open(path, "rb").read() == before
    assert _files(tmp_path) == [str(path)]  # no *.tmp left behind
    store("new")  # and the store still works afterwards
    assert open(path, "rb").read() != before
    if caller is _checkpoint_store:
        assert read_container(path) == {"meta": b"'new'"}
