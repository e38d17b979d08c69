"""Deterministic per-component random-number streams.

Reproducibility discipline: a simulation owns a single master seed, and each
component (a lossy link, a multipath router, a traffic source) draws its own
independent :class:`random.Random` stream derived from the master seed and a
stable component name.  Adding a new random component therefore never
perturbs the streams of existing ones — runs stay comparable across code
changes, which matters when regenerating the paper's figures.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


def derive_child_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stable ``name``.

    The same derivation backs both the in-simulation RNG streams
    (:class:`RngRegistry`) and the sweep executor's per-cell seeds
    (:mod:`repro.exec`): a pure function of its inputs, independent of
    creation order or process boundaries, so serial and parallel runs of
    the same experiment are bit-identical.

    crc32 is a stable, platform-independent hash of the name; Python's
    built-in hash() is salted per-process and would break determinism.
    """
    return (master_seed * 0x9E3779B1 + zlib.crc32(name.encode())) % 2**63


class RngRegistry:
    """Factory of named, independently seeded ``random.Random`` streams."""

    __slots__ = ("master_seed", "_streams")

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same (master_seed, name) pair always yields the same sequence.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = random.Random(derive_child_seed(self.master_seed, name))
        self._streams[name] = stream
        return stream

    def names(self) -> list[str]:
        """Names of all streams created so far (sorted, for debugging)."""
        return sorted(self._streams)
