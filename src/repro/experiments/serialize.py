"""JSON-friendly serialization of experiment results.

The result dataclasses (``FairnessResult``, ``Fig6Result``, ...) contain
nested dataclasses and tuple-keyed dicts (the (alpha, beta) surface of
Figure 4), which ``json.dumps`` rejects.  :func:`result_to_jsonable`
converts any of them into plain dict/list/str/number structures, and
:func:`dump_result` writes them to disk — the handoff point for external
plotting tools.

The sweep executor's result cache (:mod:`repro.exec.cache`) additionally
needs the *reverse* direction: a cache hit must hand back the same
object the cell function originally returned.  Dataclasses registered
with :func:`register_result_type` are stored with a type tag by
:func:`encode_result` and reconstructed by :func:`decode_result`
(including reviving the ``"inf"``/``"-inf"`` strings
:func:`result_to_jsonable` uses for the float infinities).
"""

from __future__ import annotations

import dataclasses
import json
from importlib import import_module
from pathlib import Path
from typing import Any, Dict, Type


def result_to_jsonable(value: Any) -> Any:
    """Recursively convert a result object to JSON-compatible types.

    Handles dataclasses, dicts (tuple keys become comma-joined strings),
    lists/tuples, and the float infinities (which JSON lacks — they
    become the strings "inf"/"-inf").
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: result_to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if isinstance(key, tuple):
                key = ",".join(str(part) for part in key)
            elif not isinstance(key, str):
                key = str(key)
            out[key] = result_to_jsonable(item)
        return out
    if isinstance(value, (list, tuple)):
        return [result_to_jsonable(item) for item in value]
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)  # last resort: repr-ish


def dump_result(result: Any, path: "str | Path", indent: int = 2) -> Path:
    """Serialize ``result`` to JSON at ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_jsonable(result), indent=indent) + "\n")
    return path


# ----------------------------------------------------------------------
# Typed round-tripping for the result cache
# ----------------------------------------------------------------------

#: Dataclasses the cache may reconstruct, by qualified name.
_RESULT_TYPES: Dict[str, Type] = {}

#: Where each of the package's own registered result types is defined:
#: :func:`decode_result` imports that module on first sight of the tag,
#: so a process that never imported the cell code (a cache-warm sweep)
#: still rebuilds the type.  Each module must stay free of simulator
#: imports at module level.
_RESULT_TYPE_MODULES: Dict[str, str] = {
    "FairnessResult": "repro.experiments.runner",
}


class UnknownResultTypeError(KeyError):
    """A cached result carries a type tag no registered dataclass has.

    The entry is valid, just not decodable in this process (its type's
    module was never imported); :class:`~repro.exec.cache.ResultCache`
    reports a miss and leaves the file in place.
    """


def register_result_type(cls: Type) -> Type:
    """Register a result dataclass for cache round-tripping.

    Registered classes must be reconstructable as ``cls(**fields)`` from
    their :func:`result_to_jsonable` form — i.e. every field is itself
    JSON-able with string keys.  Usable as a class decorator.
    """
    _RESULT_TYPES[cls.__qualname__] = cls
    return cls


def registered_result_types() -> Dict[str, Type]:
    """A copy of the registry (introspection/tests)."""
    return dict(_RESULT_TYPES)


def revive_floats(value: Any) -> Any:
    """Undo :func:`result_to_jsonable`'s infinity encoding, recursively."""
    if isinstance(value, dict):
        return {key: revive_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [revive_floats(item) for item in value]
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    return value


def encode_result(value: Any) -> Dict[str, Any]:
    """Encode a cell result as a JSON-able ``{"type": ..., "data": ...}``.

    Registered dataclasses carry their type tag and are rebuilt on
    decode; everything else is stored untyped and comes back as the
    plain JSON data (so cell functions should return either JSON-able
    values or registered dataclasses).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__qualname__
        if _RESULT_TYPES.get(name) is type(value):
            return {"type": name, "data": result_to_jsonable(value)}
    return {"type": None, "data": result_to_jsonable(value)}


def decode_result(blob: Dict[str, Any]) -> Any:
    """Decode :func:`encode_result` output back into a result object."""
    type_name = blob["type"]
    data = revive_floats(blob["data"])
    if type_name is None:
        return data
    cls = _RESULT_TYPES.get(type_name)
    if cls is None and type_name in _RESULT_TYPE_MODULES:
        import_module(_RESULT_TYPE_MODULES[type_name])  # registers it
        cls = _RESULT_TYPES.get(type_name)
    if cls is None:
        raise UnknownResultTypeError(
            f"result type {type_name!r} is not registered; "
            "cannot reconstruct the cached value"
        )
    return cls(**data)
