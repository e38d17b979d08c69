"""Cross-artifact consistency checks (REP4xx family).

Two contracts in this tree span more than one artifact, so no
single-file rule can see them drift:

* **REP401 / c-mirror-drift** — the compiled engine
  (``src/repro/_cext/_coremodule.c``) shadows ``Simulator`` slots with
  getsets and mirrors hot methods.  The getset/method tables are parsed
  straight out of the C source (lightweight regex over the
  ``static PyGetSetDef/PyMethodDef name[] = {...};`` blocks) and diffed
  against the pure classes, with intentional non-mirroring declared in
  ``src/repro/_cext/mirror_manifest.json`` (``delegated_*`` = inherited
  from the pure base on purpose).  Both directions are checked: a pure
  slot/method the C side neither shadows nor delegates, a C entry whose
  pure counterpart is gone, and stale manifest entries.
* **REP403 / obs-schema-drift** — every ``{"record": "<kind>", ...}``
  literal emitted by the obs-stream producers (``obs/``, ``scenarios/``,
  ``traces/``, ``exec/telemetry.py``) must use a record kind documented
  in the ``repro.obs/v1`` table of ``docs/OBSERVABILITY.md``, with its
  explicit fields a subset of the documented ones (the schema is
  append-only, so the doc is the source of truth).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project import ModuleSummary, Project

__all__ = [
    "MIRROR_RULE_CODE",
    "MIRROR_RULE_SLUG",
    "OBS_RULE_CODE",
    "OBS_RULE_SLUG",
    "Artifacts",
    "analyze_xartifact",
    "parse_c_tables",
    "parse_obs_schema_doc",
]

MIRROR_RULE_SLUG = "c-mirror-drift"
MIRROR_RULE_CODE = "REP401"
OBS_RULE_SLUG = "obs-schema-drift"
OBS_RULE_CODE = "REP403"

#: Modules whose record literals must match the documented obs schema.
_OBS_SCOPE_PREFIXES = ("obs/", "scenarios/", "traces/")
_OBS_SCOPE_FILES = ("exec/telemetry.py",)


# ----------------------------------------------------------------------
# Artifact loading
# ----------------------------------------------------------------------
_TABLE_RE = re.compile(
    r"static\s+Py(GetSetDef|MethodDef)\s+(\w+)\[\]\s*=\s*\{(.*?)\};",
    re.DOTALL,
)
_ENTRY_RE = re.compile(r'\{\s*"([A-Za-z0-9_]+)"')


def parse_c_tables(c_source: str) -> Dict[str, Tuple[str, ...]]:
    """``table name -> entry names`` for every getset/method table."""
    tables: Dict[str, Tuple[str, ...]] = {}
    for match in _TABLE_RE.finditer(c_source):
        body = match.group(3)
        tables[match.group(2)] = tuple(
            entry.group(1) for entry in _ENTRY_RE.finditer(body)
        )
    return tables


_DOC_ROW_RE = re.compile(r"^\|\s*`([A-Za-z0-9_]+)`\s*\|(.*)\|\s*$")
_DOC_FIELD_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)`")


def parse_obs_schema_doc(doc_text: str) -> Dict[str, Set[str]]:
    """``record kind -> documented field names`` from the schema table.

    Every backticked identifier in a row's Fields cell counts as
    documented — that deliberately includes enum values (```send```),
    which only ever widens the allowed set.
    """
    schema: Dict[str, Set[str]] = {}
    for line in doc_text.splitlines():
        match = _DOC_ROW_RE.match(line.strip())
        if match is None:
            continue
        kind = match.group(1)
        if kind == "record":  # the table's own header row
            continue
        schema[kind] = set(_DOC_FIELD_RE.findall(match.group(2)))
    return schema


@dataclass(frozen=True)
class Artifacts:
    """The non-Python inputs of the cross-artifact pass."""

    c_source: Optional[str] = None
    c_path: str = ""
    manifest: Optional[Dict[str, Any]] = None
    manifest_path: str = ""
    manifest_error: str = ""
    obs_doc: Optional[str] = None
    obs_doc_path: str = ""
    #: Content digest over all three artifacts (cache key component).
    digest: str = ""

    @classmethod
    def from_package_root(cls, package_root: str) -> "Artifacts":
        """Load artifacts relative to the ``src/repro`` package dir.

        Missing files simply disable their checks — a partial tree (a
        test fixture, a vendored subset) lints without them.
        """
        project_root = os.path.dirname(os.path.dirname(package_root))
        c_path = os.path.join(package_root, "_cext", "_coremodule.c")
        manifest_path = os.path.join(
            package_root, "_cext", "mirror_manifest.json"
        )
        obs_path = os.path.join(project_root, "docs", "OBSERVABILITY.md")

        hasher = hashlib.sha256()
        c_source = _read_text(c_path)
        manifest_text = _read_text(manifest_path)
        obs_doc = _read_text(obs_path)
        for text in (c_source, manifest_text, obs_doc):
            hasher.update(b"\x00")
            if text is not None:
                hasher.update(text.encode("utf-8"))

        manifest: Optional[Dict[str, Any]] = None
        manifest_error = ""
        if manifest_text is not None:
            try:
                loaded = json.loads(manifest_text)
            except ValueError as exc:
                manifest_error = str(exc)
            else:
                if isinstance(loaded, dict):
                    manifest = loaded
                else:
                    manifest_error = "manifest root must be a JSON object"

        return cls(
            c_source=c_source,
            c_path=c_path,
            manifest=manifest,
            manifest_path=manifest_path,
            manifest_error=manifest_error,
            obs_doc=obs_doc,
            obs_doc_path=obs_path,
            digest=hasher.hexdigest(),
        )


def _read_text(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def discover_package_root(project: Project) -> Optional[str]:
    """The on-disk ``src/repro`` directory the linted modules live in."""
    for summary in project.modules.values():
        norm = summary.path.replace(os.sep, "/")
        if norm.endswith("/" + summary.rel):
            return summary.path[: -len(summary.rel) - 1] or os.sep
    return None


# ----------------------------------------------------------------------
# REP401: pure <-> C mirror
# ----------------------------------------------------------------------
@dataclass
class _MirrorChecker:
    project: Project
    artifacts: Artifacts
    findings: List[Finding] = field(default_factory=list)

    def _emit(
        self, path: str, line: int, message: str, trace: Tuple[str, ...] = ()
    ) -> None:
        self.findings.append(
            Finding(
                rule=MIRROR_RULE_SLUG,
                code=MIRROR_RULE_CODE,
                path=path,
                line=line,
                col=0,
                message=message,
                trace=trace,
            )
        )

    def run(self) -> List[Finding]:
        if self.artifacts.c_source is None:
            return []
        if self.artifacts.manifest_error:
            self._emit(
                self.artifacts.manifest_path,
                1,
                f"unreadable mirror manifest: {self.artifacts.manifest_error}",
            )
            return self.findings
        if self.artifacts.manifest is None:
            self._emit(
                self.artifacts.c_path,
                1,
                "C engine source present but mirror_manifest.json is "
                "missing; the mirror contract cannot be checked",
            )
            return self.findings
        tables = parse_c_tables(self.artifacts.c_source)
        classes = self.artifacts.manifest.get("classes")
        if not isinstance(classes, dict):
            self._emit(
                self.artifacts.manifest_path,
                1,
                "mirror manifest has no 'classes' object",
            )
            return self.findings
        for class_name in sorted(classes):
            spec = classes[class_name]
            if isinstance(spec, dict):
                self._check_class(class_name, spec, tables)
        return self.findings

    def _check_class(
        self,
        class_name: str,
        spec: Mapping[str, Any],
        tables: Mapping[str, Tuple[str, ...]],
    ) -> None:
        module = str(spec.get("pure_module", ""))
        summary = self.project.modules.get(module)
        klass = (
            summary.classes.get(class_name) if summary is not None else None
        )
        if summary is None or klass is None:
            self._emit(
                self.artifacts.manifest_path,
                1,
                f"mirror manifest names {module}.{class_name}, which does "
                "not exist in the analyzed tree",
            )
            return

        # Union slots/methods across the project-visible MRO so
        # inherited surface counts as part of the pure class.
        slots: Set[str] = set()
        methods: Set[str] = set()
        for _owner, entry in self.project.class_mro(
            summary.module, class_name
        ):
            slots.update(entry.slots)
            methods.update(entry.methods)

        delegated_attrs = {str(n) for n in spec.get("delegated_attrs", ())}
        delegated_methods = {str(n) for n in spec.get("delegated_methods", ())}
        getset_table = str(spec.get("getset_table", ""))
        method_table = str(spec.get("method_table", ""))
        getsets = set(tables.get(getset_table, ())) if getset_table else set()
        c_methods = set(tables.get(method_table, ())) if method_table else set()

        for table_key in (getset_table, method_table):
            if table_key and table_key not in tables:
                self._emit(
                    self.artifacts.c_path,
                    1,
                    f"mirror manifest references C table '{table_key}' for "
                    f"{class_name}, but _coremodule.c defines no such table",
                )

        pure_loc = (summary.path, klass.line)

        if bool(spec.get("mirror_attrs", False)):
            for slot in sorted(slots):
                if slot.startswith("__"):
                    continue
                if slot not in getsets and slot not in delegated_attrs:
                    self._emit(
                        *pure_loc,
                        f"slot '{slot}' of {class_name} has no C getset in "
                        f"{getset_table} and is not listed as delegated in "
                        "mirror_manifest.json",
                    )
            for name in sorted(getsets):
                if name not in slots:
                    self._emit(
                        *pure_loc,
                        f"C getset '{name}' in {getset_table} shadows no "
                        f"pure slot of {class_name} (stale mirror entry)",
                    )
            for name in sorted(delegated_attrs):
                if name not in slots:
                    self._emit(
                        *pure_loc,
                        f"mirror manifest delegates attribute '{name}' of "
                        f"{class_name}, but the pure class has no such slot",
                    )

        for method in sorted(methods):
            if method.startswith("_"):
                continue  # private/dunder surface is not part of the API
            if method not in c_methods and method not in delegated_methods:
                self._emit(
                    *pure_loc,
                    f"public method '{method}' of {class_name} is neither "
                    f"mirrored in {method_table} nor listed as delegated in "
                    "mirror_manifest.json",
                )
        for name in sorted(c_methods):
            if name.startswith("_"):
                continue
            if name not in methods:
                self._emit(
                    *pure_loc,
                    f"C method '{name}' in {method_table} has no pure "
                    f"counterpart on {class_name}",
                )
        for name in sorted(delegated_methods):
            if name not in methods:
                self._emit(
                    *pure_loc,
                    f"mirror manifest delegates method '{name}' of "
                    f"{class_name}, but the pure class defines no such "
                    "method",
                )


# ----------------------------------------------------------------------
# REP403: emitted record literals vs documented schema
# ----------------------------------------------------------------------
def _obs_in_scope(summary: ModuleSummary) -> bool:
    return summary.rel.startswith(_OBS_SCOPE_PREFIXES) or (
        summary.rel in _OBS_SCOPE_FILES
    )


def _check_obs_schema(
    project: Project, artifacts: Artifacts
) -> List[Finding]:
    if artifacts.obs_doc is None:
        return []
    documented = parse_obs_schema_doc(artifacts.obs_doc)
    if not documented:
        return []
    findings: List[Finding] = []
    for summary in project.modules.values():
        if not _obs_in_scope(summary):
            continue
        for kind, fields, _dynamic, line, col in summary.record_literals:
            if kind not in documented:
                findings.append(
                    Finding(
                        rule=OBS_RULE_SLUG,
                        code=OBS_RULE_CODE,
                        path=summary.path,
                        line=line,
                        col=col,
                        message=(
                            f"record kind '{kind}' is emitted here but has "
                            "no row in the repro.obs/v1 table of "
                            "docs/OBSERVABILITY.md (the schema is "
                            "append-only: document it first)"
                        ),
                    )
                )
                continue
            allowed = documented[kind]
            extra = sorted(
                name
                for name in fields
                if name != "record" and name not in allowed
            )
            if extra:
                findings.append(
                    Finding(
                        rule=OBS_RULE_SLUG,
                        code=OBS_RULE_CODE,
                        path=summary.path,
                        line=line,
                        col=col,
                        message=(
                            f"record '{kind}' emits undocumented field(s) "
                            f"{', '.join(repr(n) for n in extra)}; add them "
                            "to the repro.obs/v1 table in "
                            "docs/OBSERVABILITY.md"
                        ),
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def analyze_xartifact(
    project: Project, artifacts: Artifacts
) -> List[Finding]:
    """Run REP401 + REP403 over the assembled project."""
    findings = _MirrorChecker(project, artifacts).run()
    findings.extend(_check_obs_schema(project, artifacts))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
