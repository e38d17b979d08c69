"""Result digests: sha256 over canonical *simulated* outputs.

A digest pins what a round computed (dispatched events, per-flow
delivered segments, sender statistics, drops; for CLI workloads the
``--json`` payload), never how long it took, so two rounds, two engines
or two commits compare exactly.  Host-dependent fields are stripped
before hashing and key order never matters.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: Keys whose values depend on the host, not on the simulation.
TIMING_KEYS = frozenset(
    {"max_rss_kb", "elapsed", "wall_time", "wall_s", "cpu_s", "setup_s"}
)


def canonical(value: Any) -> Any:
    """``value`` with every :data:`TIMING_KEYS` entry removed, recursively."""
    if isinstance(value, dict):
        return {
            str(key): canonical(item)
            for key, item in value.items()
            if str(key) not in TIMING_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def result_digest(value: Any) -> str:
    """sha256 hex digest of the canonical JSON form of ``value``."""
    text = json.dumps(
        canonical(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path: Any) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
