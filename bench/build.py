"""Out-of-tree build of the compiled engine.

``src/`` must be byte-identical before and after a benchmark run (tier-1
keeps testing the pure engine), so the extension is built under
``bench/out/build/`` and made importable only inside the workers that
ask for it, by extending ``repro._cext.__path__`` before
``engine_select`` resolves.  A missing compiler is reported, never
skipped: rounds that need the extension then fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

from bench import OUT, ROOT, SRC, clock
from bench.digest import file_sha256

BUILD = OUT / "build"
LIB = BUILD / "lib"
STAMP = BUILD / "stamp.json"
SOURCE = SRC / "repro" / "_cext" / "_coremodule.c"


def extension_dir() -> Path:
    return LIB / "repro" / "_cext"


def _built_extension() -> str:
    found = sorted(extension_dir().glob("_core*.so")) + sorted(
        extension_dir().glob("_core*.pyd")
    )
    return str(found[0]) if found else ""


def ensure_built() -> Dict[str, Any]:
    """Build the extension unless an up-to-date one exists.

    Returns ``{"ok", "extension", "build_s", "fresh", "error"}``;
    ``build_s`` is the duration of the build that produced the current
    extension (read back from the stamp when nothing was rebuilt).
    """
    source_sha = file_sha256(SOURCE)
    if STAMP.exists() and _built_extension():
        stamp = json.loads(STAMP.read_text())
        if stamp.get("source_sha256") == source_sha and stamp.get(
            "python"
        ) == sys.version:
            return {
                "ok": True,
                "extension": _built_extension(),
                "build_s": stamp["build_s"],
                "fresh": False,
                "error": "",
            }
    BUILD.mkdir(parents=True, exist_ok=True)
    started = clock.now()
    proc = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "-q",
            "build_ext",
            "--build-lib",
            str(LIB),
            "--build-temp",
            str(BUILD / "tmp"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    build_s = clock.now() - started
    extension = _built_extension()
    if proc.returncode != 0 or not extension:
        # setup.py marks the extension optional, so a missing compiler
        # exits 0 without producing the file.
        return {
            "ok": False,
            "extension": "",
            "build_s": build_s,
            "fresh": True,
            "error": (proc.stderr or proc.stdout).strip()[-2000:]
            or "build_ext produced no extension",
        }
    STAMP.write_text(
        json.dumps(
            {
                "source_sha256": source_sha,
                "python": sys.version,
                "build_s": build_s,
            },
            sort_keys=True,
        )
    )
    return {
        "ok": True,
        "extension": extension,
        "build_s": build_s,
        "fresh": True,
        "error": "",
    }


def make_importable() -> None:
    """Let *this process* import ``repro._cext._core`` from the build."""
    import repro._cext

    path = str(extension_dir())
    if path not in repro._cext.__path__:
        repro._cext.__path__.append(path)
