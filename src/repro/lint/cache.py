"""Content-hashed incremental cache for the whole-program analyzer.

Layout (under ``.repro-cache/lint/`` by default)::

    modules/<key>.json   one per source file: its ModuleSummary plus the
                         already-suppressed shallow findings
    deep/<key>.json      one per source file: the deep (REP1xx-inter,
                         REP4xx) findings attributed to that file
    deep/<key>.json      plus one *project pseudo-entry* for deep
                         findings attributed to non-Python artifacts
                         (the mirror manifest, the C source)

Keying is pure content addressing — no mtimes, no manifest file, no
invalidation protocol:

* every key mixes in :func:`analyzer_signature`, a digest of the
  analyzer's own sources, so upgrading the linter silently discards the
  whole cache;
* a module entry is keyed by its source text, so touching a file
  without changing it still hits;
* a deep entry is keyed by the module's digest **plus the digests of
  every module it transitively imports plus the artifacts digest** —
  editing one module therefore invalidates exactly itself and its
  dependents, which is what makes the cache-hit stats a meaningful
  incrementality assertion.

Stale entries are never reused (their keys are simply never derived
again) and never collected; the cache directory is safe to delete at
any time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.lint.findings import Finding
from repro.lint.project import ModuleSummary
from repro.util.atomic import atomic_write

__all__ = [
    "CacheStats",
    "LintCache",
    "analyzer_signature",
    "content_digest",
]

_ANALYZER_SIG: Optional[str] = None


def analyzer_signature() -> str:
    """Digest of the analyzer's own source files (cached per process)."""
    global _ANALYZER_SIG
    if _ANALYZER_SIG is None:
        hasher = hashlib.sha256()
        package_dir = os.path.dirname(os.path.abspath(__file__))
        for name in sorted(os.listdir(package_dir)):
            if not name.endswith(".py"):
                continue
            hasher.update(name.encode("utf-8"))
            hasher.update(b"\x00")
            with open(os.path.join(package_dir, name), "rb") as handle:
                hasher.update(handle.read())
            hasher.update(b"\x00")
        _ANALYZER_SIG = hasher.hexdigest()
    return _ANALYZER_SIG


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, printed by ``repro lint --stats`` and pinned
    by the incrementality tests."""

    enabled: bool = True
    parse_hits: int = 0
    parse_misses: int = 0
    deep_hits: int = 0
    deep_misses: int = 0
    #: rels of the modules whose deep entries had to be recomputed.
    reanalyzed: List[str] = field(default_factory=list)

    def to_record(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
            "deep_hits": self.deep_hits,
            "deep_misses": self.deep_misses,
            "reanalyzed": sorted(self.reanalyzed),
        }


class LintCache:
    """File-backed summary + deep-finding store.

    All IO failures degrade to cache misses (a torn write, a read-only
    directory, a corrupt entry) — the linter must never fail because its
    cache did.
    """

    def __init__(self, cache_dir: str, enabled: bool = True) -> None:
        self.cache_dir = cache_dir
        self.enabled = enabled

    # -- keys ----------------------------------------------------------
    def module_key(self, source: str) -> str:
        return content_digest(analyzer_signature() + "\x00" + source)

    def deep_key(
        self,
        module_digest: str,
        dep_digests: Sequence[str],
        artifacts_digest: str,
    ) -> str:
        parts = [analyzer_signature(), module_digest]
        parts.extend(sorted(dep_digests))
        parts.append(artifacts_digest)
        return content_digest("\x00".join(parts))

    # -- raw entry IO --------------------------------------------------
    def _entry_path(self, bucket: str, key: str) -> str:
        return os.path.join(self.cache_dir, bucket, key + ".json")

    def _load(self, bucket: str, key: str) -> Optional[Dict[str, Any]]:
        if not self.enabled:
            return None
        try:
            with open(
                self._entry_path(bucket, key), "r", encoding="utf-8"
            ) as handle:
                loaded = json.load(handle)
        except (OSError, ValueError):
            return None
        return loaded if isinstance(loaded, dict) else None

    def _store(self, bucket: str, key: str, payload: Dict[str, Any]) -> None:
        if not self.enabled:
            return
        try:
            atomic_write(
                self._entry_path(bucket, key),
                lambda handle: handle.write(
                    json.dumps(payload, sort_keys=True).encode("utf-8")
                ),
                durable=False,
            )
        except OSError:
            return  # a failed cache write must never fail the lint run

    # -- module summaries ----------------------------------------------
    def load_module(
        self, key: str
    ) -> Optional[Dict[str, Any]]:
        """``{"summary": ..., "findings": [...]}`` or None on miss."""
        entry = self._load("modules", key)
        if entry is None or "summary" not in entry:
            return None
        return entry

    def store_module(
        self,
        key: str,
        summary: ModuleSummary,
        findings: Sequence[Finding],
    ) -> None:
        self._store(
            "modules",
            key,
            {
                "summary": summary.to_jsonable(),
                "findings": [f.to_record() for f in findings],
            },
        )

    # -- deep findings -------------------------------------------------
    def load_deep(self, key: str) -> Optional[List[Dict[str, Any]]]:
        entry = self._load("deep", key)
        if entry is None or "findings" not in entry:
            return None
        findings = entry["findings"]
        return findings if isinstance(findings, list) else None

    def store_deep(self, key: str, findings: Sequence[Finding]) -> None:
        self._store(
            "deep", key, {"findings": [f.to_record() for f in findings]}
        )
