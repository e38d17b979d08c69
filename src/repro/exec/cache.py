"""Content-addressed on-disk cache for sweep-cell results.

A cell's simulation output is a pure function of its spec — the work
function, its parameters, and the seed — so for a fixed package version
the result never changes and re-running it is pure waste.
:class:`ResultCache` keys each entry by a SHA-256 hash of the canonical
JSON of ``(schema, package version, func, params, seed)`` and stores the
result under ``.repro-cache/<hh>/<hash>.json`` using the serialization
codecs from :mod:`repro.experiments.serialize`.

Robustness rules:

* any unreadable/undecodable entry (truncated write, foreign schema)
  is treated as a miss, best-effort deleted, and counted in
  :attr:`CacheStats.errors` — the cell simply re-runs;
* an entry whose result type is not registered in this process is
  counted the same way but stays on disk: it is valid, only this
  process cannot rebuild it
  (:class:`~repro.experiments.serialize.UnknownResultTypeError`);
* entries are written atomically (temp file + ``os.replace``) so
  concurrent writers — e.g. two CLI invocations sharing a cache
  directory — can never expose a half-written entry;
* bumping :data:`CACHE_SCHEMA_VERSION` or the package version
  invalidates every old entry by construction (the key changes).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.util.atomic import atomic_write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.spec import SweepCell

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every existing cache entry after an on-disk format
#: change.
CACHE_SCHEMA_VERSION = 1


def _package_version() -> str:
    # Imported lazily: ``repro`` pulls in the whole package, and this
    # module must stay importable from ``repro.experiments.__init__``
    # without creating an import cycle.
    from repro import __version__

    return __version__


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0


@dataclass
class ResultCache:
    """Filesystem-backed, content-addressed store of cell results.

    ``version`` defaults to the installed ``repro.__version__`` and is
    folded into every key, so upgrading the package invalidates stale
    results instead of serving them.
    """

    root: Path = Path(DEFAULT_CACHE_DIR)
    version: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.version is None:
            self.version = _package_version()

    # -- keys ----------------------------------------------------------
    def key_for(self, cell: "SweepCell") -> str:
        """The content hash identifying ``cell``'s result."""
        from repro.experiments.serialize import result_to_jsonable

        canonical = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "version": self.version,
                "func": cell.func,
                "params": result_to_jsonable(dict(cell.params)),
                "seed": cell.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def path_for(self, cell: "SweepCell") -> Path:
        key = self.key_for(cell)
        return self.root / key[:2] / f"{key}.json"

    # -- access --------------------------------------------------------
    def load(self, cell: "SweepCell") -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        A corrupted or undecodable entry counts as a miss (and an
        error): the file is removed so the re-run can heal the cache.
        An entry of an unregistered result type is counted alike but
        stays: another process (or this one, once the type's module is
        imported) can still decode it.
        """
        from repro.experiments.serialize import (
            UnknownResultTypeError,
            decode_result,
        )

        path = self.path_for(cell)
        try:
            raw = path.read_text()
        except OSError:
            self.stats.misses += 1
            return False, None
        try:
            blob = json.loads(raw)
            value = decode_result(blob["result"])
        except UnknownResultTypeError:
            self.stats.errors += 1
            self.stats.misses += 1
            return False, None
        except (ValueError, LookupError, TypeError):
            self.stats.errors += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return False, None
        self.stats.hits += 1
        return True, value

    def store(self, cell: "SweepCell", value: Any) -> Path:
        """Persist ``value`` for ``cell`` (atomic replace); returns the path."""
        from repro.experiments.serialize import encode_result, result_to_jsonable

        path = self.path_for(cell)
        blob: Dict[str, Any] = {
            "schema": CACHE_SCHEMA_VERSION,
            "version": self.version,
            "func": cell.func,
            "params": result_to_jsonable(dict(cell.params)),
            "seed": cell.seed,
            "result": encode_result(value),
        }
        atomic_write(
            path,
            # lint: allow-unsorted-json(the stored entry, not a hash input: result key order must survive the round trip)
            lambda handle: handle.write(json.dumps(blob).encode("ascii")),
            durable=False,
        )
        self.stats.stores += 1
        return path
