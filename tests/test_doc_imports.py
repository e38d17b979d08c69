"""Every ``repro`` import in the examples and the docs names something
that exists.

No example runs in tier-1, so deleting a public name could break
``examples/*.py``, the README or a docs snippet silently.  This check
parses them (never runs them) and resolves each ``import repro...`` /
``from repro... import X`` with :func:`importlib.import_module` and
``getattr``.
"""

from __future__ import annotations

import ast
import glob
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _sources():
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            yield os.path.relpath(path, ROOT), handle.read()
    docs = [os.path.join(ROOT, "README.md")]
    docs += sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    for path in docs:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for number, match in enumerate(_PYTHON_BLOCK.finditer(text), 1):
            name = f"{os.path.relpath(path, ROOT)}#python-{number}"
            yield name, match.group(1)


_IMPORT_LINE = re.compile(r"^[ \t]*(?:from|import)[ \t]+repro\b.*$", re.M)


def _parse(source):
    """The snippet's AST; a fragment that is not a whole program (an
    ``except`` clause shown alone) contributes only its import lines."""
    try:
        return ast.parse(source)
    except SyntaxError:
        lines = []
        for match in _IMPORT_LINE.finditer(source):
            line = match.group(0).strip()
            if line.endswith("("):
                end = source.index(")", match.end())
                line += source[match.end():end + 1]
            lines.append(line)
        return ast.parse("\n".join(lines))


def _repro_imports(source):
    """``(module, attribute or None, line)`` per repro import."""
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name, node.lineno


SOURCES = dict(_sources())


def test_examples_and_docs_are_found():
    assert any(name.startswith("examples") for name in SOURCES)
    assert any(name.startswith("README.md#") for name in SOURCES)
    assert any(name.startswith("docs") for name in SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_repro_import_resolves(name):
    missing = []
    for module, attribute, line in _repro_imports(SOURCES[name]):
        try:
            imported = importlib.import_module(module)
        except ImportError as exc:
            missing.append(f"line {line}: import {module} ({exc})")
            continue
        if attribute is not None and not hasattr(imported, attribute):
            try:
                importlib.import_module(f"{module}.{attribute}")
            except ImportError:
                missing.append(f"line {line}: from {module} import {attribute}")
    assert missing == []
