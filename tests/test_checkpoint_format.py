"""The ``repro.ckpt/v1`` container: framing, atomicity, corruption typing.

Every corruption mode must surface as a typed error *naming the failing
section* — "the link section rotted" and "the file is half-written" are
different operator situations, and resume tooling branches on them.
"""

import os

import pytest

from repro.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from repro.checkpoint.format import (
    MAGIC,
    list_sections,
    read_container,
    write_container,
)
from repro.sim.engine import Simulator


def _sections():
    return {
        "meta": b'{"hello": 1}',
        "blob": b"A" * 1000,
        "empty": b"",
        "binary": bytes(range(256)),
    }


# ----------------------------------------------------------------------
# Round trip + framing
# ----------------------------------------------------------------------
def test_container_round_trip(tmp_path):
    path = tmp_path / "x.ckpt"
    write_container(path, _sections())
    assert read_container(path) == _sections()
    assert sorted(list_sections(path)) == sorted(
        (name, len(payload)) for name, payload in _sections().items()
    )


def test_container_empty(tmp_path):
    path = tmp_path / "x.ckpt"
    write_container(path, {})
    assert read_container(path) == {}
    assert path.read_bytes() == MAGIC + b"@end\n"


def test_container_overwrites_atomically(tmp_path):
    path = tmp_path / "x.ckpt"
    write_container(path, {"a": b"old"})
    write_container(path, {"a": b"new"})
    assert read_container(path) == {"a": b"new"}
    # mkstemp temp files are renamed or unlinked, never left behind.
    assert [entry.name for entry in tmp_path.iterdir()] == ["x.ckpt"]


def test_container_rejects_bad_section_names(tmp_path):
    path = tmp_path / "x.ckpt"
    for name in ("", "has space", "has\nnewline", "end", "é"):
        with pytest.raises(ValueError):
            write_container(path, {name: b""})
    assert not path.exists()


# ----------------------------------------------------------------------
# Corruption modes
# ----------------------------------------------------------------------
def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"not a checkpoint at all\n")
    with pytest.raises(CheckpointFormatError):
        read_container(path)


def test_missing_end_marker_names_container(tmp_path):
    path = tmp_path / "x.ckpt"
    write_container(path, _sections())
    data = path.read_bytes()
    assert data.endswith(b"@end\n")
    path.write_bytes(data[: -len(b"@end\n")])
    with pytest.raises(CheckpointCorruptError) as info:
        read_container(path)
    assert info.value.section == "container"


def test_flipped_payload_byte_names_its_section(tmp_path):
    path = tmp_path / "x.ckpt"
    write_container(path, _sections())
    data = path.read_bytes()
    path.write_bytes(data.replace(b"A" * 1000, b"B" + b"A" * 999))
    with pytest.raises(CheckpointCorruptError) as info:
        read_container(path)
    assert info.value.section == "blob"
    assert "CRC" in info.value.detail


def test_truncated_payload_names_its_section(tmp_path):
    path = tmp_path / "x.ckpt"
    write_container(path, {"meta": b"mm", "tail": b"T" * 64})
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    with pytest.raises(CheckpointCorruptError) as info:
        read_container(path)
    assert info.value.section == "tail"


def test_duplicate_section_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    body = b"@twin 2 %d\nhi\n" % __import__("zlib").crc32(b"hi")
    path.write_bytes(MAGIC + body + body + b"@end\n")
    with pytest.raises(CheckpointCorruptError) as info:
        read_container(path)
    assert info.value.section == "twin"
    assert "duplicate" in info.value.detail


def test_malformed_header_names_container(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(MAGIC + b"no-at-sign 3 1\nabc\n@end\n")
    with pytest.raises(CheckpointCorruptError) as info:
        read_container(path)
    assert info.value.section == "container"


# ----------------------------------------------------------------------
# Whole-checkpoint layer (save/load)
# ----------------------------------------------------------------------
def _tick():
    pass


def test_save_load_inspect_round_trip(tmp_path):
    path = tmp_path / "sim.ckpt"
    sim = Simulator(seed=7)
    sim.rng.stream("noise").random()
    sim.post_in(1.5, _tick, None, "tick")
    save_checkpoint(sim, path, user_meta={"cell": "fixture"})

    assert set(read_container(path)) == {"meta", "globals", "rng", "graph"}
    loaded = load_checkpoint(path)
    assert loaded.meta["now"] == 0.0
    assert loaded.meta["pending_events"] == 1
    assert loaded.meta["rng_streams"] == ["noise"]
    assert loaded.meta["user_meta"] == {"cell": "fixture"}

    restored = loaded.resume()
    assert restored.now == sim.now
    assert restored.pending_events == 1


def test_load_missing_section_is_corrupt(tmp_path):
    path = tmp_path / "sim.ckpt"
    save_checkpoint(Simulator(seed=1), path)
    sections = read_container(path)
    del sections["rng"]
    write_container(path, sections)
    with pytest.raises(CheckpointCorruptError) as info:
        load_checkpoint(path)
    assert info.value.section == "rng"


def test_load_unpicklable_graph_names_graph(tmp_path):
    path = tmp_path / "sim.ckpt"
    save_checkpoint(Simulator(seed=1), path)
    sections = read_container(path)
    sections["graph"] = b"\x80\x04 definitely not a pickle"
    write_container(path, sections)
    with pytest.raises(CheckpointCorruptError) as info:
        load_checkpoint(path)
    assert info.value.section == "graph"


def test_load_schema_mismatch_is_checkpoint_error(tmp_path):
    path = tmp_path / "sim.ckpt"
    save_checkpoint(Simulator(seed=1), path)
    sections = read_container(path)
    sections["meta"] = sections["meta"].replace(b'"schema": 1', b'"schema": 99')
    write_container(path, sections)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_fsync_failure_is_tolerated(tmp_path, monkeypatch):
    # Directory fsync is best-effort durability, not correctness; an
    # EPERM there (containers, some network filesystems) must not fail
    # the write.
    real_open = os.open

    def deny_dir_open(path, flags, *args, **kwargs):
        if flags == os.O_RDONLY and os.path.isdir(path):
            raise OSError("no directory handles here")
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", deny_dir_open)
    path = tmp_path / "x.ckpt"
    write_container(path, {"a": b"payload"})
    assert read_container(path) == {"a": b"payload"}
