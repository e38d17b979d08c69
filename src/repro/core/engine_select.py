"""Engine selection: the pure-python hot core vs the compiled one.

The simulator's hot core (event loop, link/node forwarding) exists in
two builds with **identical semantics**:

* the *pure* build — the plain Python classes in
  :mod:`repro.sim.engine`, :mod:`repro.net.link`, :mod:`repro.net.node`
  that every checkout runs out of the box; and
* the *compiled* build — the optional C accelerator extension
  :mod:`repro._cext._core`, whose classes **subclass** the pure ones and
  override only the hot methods (see ``docs/COMPILED.md``).  It exists
  only after ``python setup.py build_ext --inplace`` (or an install with
  a working C toolchain).

Selection is **late-bound at construction time**: constructing
``Simulator(...)`` consults this module (via a ``__new__`` hook on the
pure class) and returns an instance of whichever implementation is
active; ``Link``/``Node`` then follow the simulator instance they are
attached to.  Import order therefore never matters, and a single
process can build pure and compiled simulators side by side (the
benchmark A/B does exactly that, via :func:`use_engine`).

Choosing a build imports no hot-core module.  :func:`activate` only
*locates* the extension (``importlib.util.find_spec``); the hooks of
:mod:`repro.sim.engine`, :mod:`repro.net.link` and
:mod:`repro.net.node` are pointed at the chosen build right away when
those modules are already loaded, and otherwise by the first
``Simulator(...)`` construction (:func:`install`).  So a command that
never builds a simulator (a cache-warm figure) never loads the
engine or the extension, and a ``--jobs`` worker that imports the
engine only inside its cell still gets the build the parent chose.
An extension that is found but fails to load is reported at that
first construction: ``compiled`` raises, ``auto`` falls back to pure.

Precedence, highest first:

1. an explicit :func:`activate`/:func:`use_engine` call (the CLI's
   ``--engine`` flag lands here);
2. the ``REPRO_ENGINE`` environment variable (``auto``/``pure``/
   ``compiled``);
3. the default, ``auto``.

``auto`` uses the compiled classes when the extension imports and
silently falls back to pure otherwise — zero behavior change, zero
warnings.  ``compiled`` refuses to run without the extension: it raises
:class:`EngineUnavailableError` with build instructions rather than
silently handing back the slow path.  ``pure`` never touches the
extension, even when it is present.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Optional, Tuple

#: Recognized engine modes.
MODES: Tuple[str, ...] = ("auto", "pure", "compiled")

#: Environment variable consulted when no explicit mode was activated.
ENV_VAR = "REPRO_ENGINE"

#: The extension module implementing the compiled classes.
EXTENSION_MODULE = "repro._cext._core"

#: One-line build recipe, quoted in error messages and docs.
BUILD_HINT = "python setup.py build_ext --inplace"


class EngineUnavailableError(RuntimeError):
    """``REPRO_ENGINE=compiled`` (or ``--engine compiled``) was requested
    but the compiled extension is not importable."""


@dataclass(frozen=True)
class EngineInfo:
    """What is currently active and why.

    Attributes:
        mode: The requested mode (``auto``/``pure``/``compiled``).
        name: The engine actually in use (``pure`` or ``compiled``).
        extension: Filesystem path of the loaded extension (compiled
            engine only).
        fallback_reason: Why ``auto`` fell back to pure (import error
            text), or ``None``.
    """

    mode: str
    name: str
    extension: Optional[str]
    fallback_reason: Optional[str]


_active: Optional[EngineInfo] = None
_compiled_classes: Optional[Dict[str, type]] = None
_compiled_import_error: Optional[str] = None


def _import_compiled() -> Optional[Dict[str, type]]:
    """Import the extension and return its class map (memoized)."""
    global _compiled_classes, _compiled_import_error
    if _compiled_classes is not None:
        return _compiled_classes
    if _compiled_import_error is not None:
        return None
    try:
        import importlib

        module = importlib.import_module(EXTENSION_MODULE)
        _compiled_classes = {
            "Simulator": module.Simulator,
            "Link": module.Link,
            "Node": module.Node,
            "__file__": module.__file__,
        }
    except Exception as exc:  # lint: allow-broad-except(any extension failure must degrade to the pure engine, never crash an import)
        _compiled_import_error = f"{type(exc).__name__}: {exc}"
        return None
    return _compiled_classes


def _locate_compiled() -> Optional[str]:
    """Path of the extension, found without importing it, or None."""
    global _compiled_import_error
    if _compiled_classes is not None:
        return str(_compiled_classes["__file__"])
    if _compiled_import_error is not None:
        return None
    import importlib.util

    spec = importlib.util.find_spec(EXTENSION_MODULE)
    if spec is None or spec.origin is None:
        _compiled_import_error = (
            f"ModuleNotFoundError: No module named {EXTENSION_MODULE!r}"
        )
        return None
    return spec.origin


def _unavailable(detail: Optional[str]) -> EngineUnavailableError:
    return EngineUnavailableError(
        "REPRO_ENGINE=compiled was requested but the compiled "
        f"extension ({EXTENSION_MODULE}) is not importable"
        + (f" ({detail})" if detail else "")
        + f". Build it with `{BUILD_HINT}` (requires a C "
        "toolchain and CPython headers), or run with "
        "REPRO_ENGINE=auto|pure to use the pure-python engine."
    )


def compiled_available() -> bool:
    """True when the compiled extension imports on this interpreter."""
    return _import_compiled() is not None


def resolve_mode(explicit: Optional[str] = None) -> str:
    """The engine mode in effect: explicit arg > env var > ``auto``."""
    mode = explicit if explicit is not None else os.environ.get(ENV_VAR, "auto")
    if mode not in MODES:
        raise ValueError(
            f"unknown engine mode {mode!r}: expected one of {'/'.join(MODES)} "
            f"(from {'argument' if explicit is not None else ENV_VAR})"
        )
    return mode


def activate(mode: Optional[str] = None) -> EngineInfo:
    """Select the engine build used by subsequent constructions.

    Args:
        mode: ``auto``/``pure``/``compiled``, or ``None`` to resolve
            from ``REPRO_ENGINE`` (default ``auto``).

    Returns:
        The resulting :class:`EngineInfo`.

    Raises:
        EngineUnavailableError: mode is ``compiled`` and the extension
            is not importable — the message carries the build command.
        ValueError: unknown mode string.
    """
    global _active
    resolved = resolve_mode(mode)
    extension: Optional[str] = None
    fallback: Optional[str] = None
    if resolved in ("auto", "compiled"):
        extension = _locate_compiled()
        if (
            extension is not None
            and "repro.sim.engine" in sys.modules
            and _import_compiled() is None
        ):
            # With the engine loaded there is nothing to defer: an
            # extension that fails to import is unavailable now.
            extension = None
        if extension is None:
            if resolved == "compiled":
                raise _unavailable(_compiled_import_error)
            fallback = _compiled_import_error
    if mode is not None:
        # Explicit choices propagate to spawned worker processes, which
        # re-resolve from the environment on first construction.
        os.environ[ENV_VAR] = resolved
    _active = EngineInfo(
        mode=resolved,
        name="compiled" if extension is not None else "pure",
        extension=extension,
        fallback_reason=fallback,
    )
    if "repro.sim.engine" in sys.modules:
        install()
    return _active


#: ``(module, hook attribute, class name in the compiled class map)``:
#: the construction hooks :func:`_install` points at a build.
_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "_COMPILED_SIMULATOR", "Simulator"),
    ("repro.net.link", "_COMPILED_LINK", "Link"),
    ("repro.net.link", "_COMPILED_SIMULATOR", "Simulator"),
    ("repro.net.node", "_COMPILED_NODE", "Node"),
    ("repro.net.node", "_COMPILED_SIMULATOR", "Simulator"),
)


def _install(classes: Optional[Dict[str, type]]) -> None:
    """Point the construction hooks of the hot-core modules already
    imported at ``classes`` (None = pure).

    A module imported later starts pure; the compiled classes import
    all three, so a compiled install always reaches every hook.
    """
    for module_name, hook, name in _HOOKS:
        module = sys.modules.get(module_name)
        if module is not None:
            setattr(module, hook, classes[name] if classes is not None else None)


def install() -> EngineInfo:
    """Install the active build into the loaded hot-core modules.

    Activates from the environment first when nothing is active.
    :func:`activate` calls it when :mod:`repro.sim.engine` is already
    imported; otherwise the first ``Simulator(...)`` construction does,
    which is where a located compiled extension is actually imported.

    Raises:
        EngineUnavailableError: mode ``compiled`` and the located
            extension failed to import.
    """
    global _active
    if _active is None:
        return activate(None)
    classes: Optional[Dict[str, type]] = None
    if _active.name == "compiled":
        classes = _import_compiled()
        if classes is None:
            if _active.mode == "compiled":
                raise _unavailable(_compiled_import_error)
            _active = replace(
                _active,
                name="pure",
                extension=None,
                fallback_reason=_compiled_import_error,
            )
    _install(classes)
    return _active


def active() -> EngineInfo:
    """The active engine, activating from the environment on first use."""
    if _active is None:
        return activate(None)
    return _active


def engine_name() -> str:
    """``"pure"`` or ``"compiled"`` — whichever is currently active."""
    return active().name


@contextmanager
def use_engine(mode: str) -> Iterator[EngineInfo]:
    """Temporarily force an engine build (tests and the benchmark A/B).

    Simulators constructed inside the ``with`` block use the forced
    build; previously constructed simulators are untouched (selection is
    per construction).  Restores the prior selection on exit, including
    the environment variable and the hook classes saved on entry — put
    back as they were, not imported again, so leaving the block never
    raises.  Hooks of modules first imported inside the block go back
    to pure; the next construction re-resolves them lazily.
    """
    global _active
    previous = _active
    previous_env = os.environ.get(ENV_VAR)
    saved = {
        (module_name, hook): getattr(sys.modules[module_name], hook)
        for module_name, hook, _ in _HOOKS
        if module_name in sys.modules
    }
    info = activate(mode)
    try:
        yield info
    finally:
        if previous_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous_env
        _active = previous
        for module_name, hook, _ in _HOOKS:
            module = sys.modules.get(module_name)
            if module is not None:
                setattr(module, hook, saved.get((module_name, hook)))


# ----------------------------------------------------------------------
# Engine-portable pickling (see docs/COMPILED.md and repro.checkpoint)
# ----------------------------------------------------------------------
# Compiled instances must never pickle by class reference: a checkpoint
# written by a compiled build has to load on a pure-only checkout.  The
# compiled classes' __reduce_ex__ routes through these constructors,
# which rebuild on whatever engine is active *at load time* — state is
# then applied by pickle's ordinary slot-state protocol, which both
# builds share attribute-for-attribute.


def _unpickle_simulator() -> Any:
    from repro.sim.engine import Simulator

    cls = _active_class("Simulator", Simulator)
    return cls.__new__(cls)


def _unpickle_link() -> Any:
    from repro.net.link import Link

    cls = _active_class("Link", Link)
    return cls.__new__(cls)


def _unpickle_node() -> Any:
    from repro.net.node import Node

    cls = _active_class("Node", Node)
    return cls.__new__(cls)


def _active_class(name: str, pure: type) -> type:
    if active().name == "compiled":
        classes = _import_compiled()
        if classes is not None:
            return classes[name]
    return pure
