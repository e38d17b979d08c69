"""Project-wide symbol table: one :class:`ModuleSummary` per module.

The whole-program passes (:mod:`repro.lint.taint`,
:mod:`repro.lint.xartifact`) never touch an AST — they work over
*module summaries*: small, JSON-serializable digests of everything the
interprocedural analyses need (name bindings, per-function taint
skeletons, class layouts, emitted record literals, pragmas).  The split
buys three things at once:

* **Parallel parsing.**  Summaries are plain data, so the parse +
  shallow-rules + summarize step fans out over a process pool and the
  results merge deterministically in the parent.
* **Incremental caching.**  A summary is a pure function of the module
  source and the analyzer itself, so it is content-addressed under
  ``.repro-cache/lint/`` (:mod:`repro.lint.cache`); a second run over an
  unchanged tree re-analyzes nothing.
* **Cheap fixpoints.**  The interprocedural fixpoint iterates over a few
  hundred function skeletons, not a few hundred thousand AST nodes.

:class:`Project` assembles the summaries, exposes the import-dependency
graph (used to key the per-module deep-finding cache: a module's deep
findings depend on its own summary plus the summaries of everything it
transitively imports), and is the input to
:func:`repro.lint.callgraph.build_callgraph`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.lint.engine import ParsedModule

__all__ = [
    "ClassSummary",
    "FunctionSummary",
    "Influence",
    "ModuleSummary",
    "Project",
    "module_name_for",
    "summarize_module",
]


# ----------------------------------------------------------------------
# Nondeterminism sources
# ----------------------------------------------------------------------
#: ``random``-module callables (kept in sync with rules._RANDOM_BANNED).
_RANDOM_FUNCS = frozenset(
    {
        "random", "seed", "randint", "randrange", "randbytes", "choice",
        "choices", "shuffle", "sample", "uniform", "gauss", "expovariate",
        "normalvariate", "lognormvariate", "betavariate", "gammavariate",
        "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "binomialvariate", "Random", "SystemRandom",
    }
)
_WALLCLOCK_FUNCS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    }
)
_UUID_FUNCS = frozenset({"uuid1", "uuid4"})

#: kind -> human description used in taint finding messages.
SOURCE_KINDS: Dict[str, str] = {
    "module-random": "a global-random draw",
    "wallclock": "a wall-clock read",
    "os-urandom": "os.urandom() entropy",
    "uuid": "a random UUID",
    "object-id": "an id() value (address-dependent)",
    "object-hash": "a hash() value (PYTHONHASHSEED-dependent for strings)",
    "set-order": "set iteration order (hash/history-dependent)",
}


# ----------------------------------------------------------------------
# Summary records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Influence:
    """What feeds one expression: direct nondet sources, call results,
    and (already-resolved-away at summary time) local names.

    ``sources`` rows are ``(kind, line, col)``; ``calls`` rows are
    ``(raw_callee, line, col)`` where ``raw_callee`` is the dotted name
    as written (``self._helper``, ``rng_stream``, ``mod.func``).
    """

    sources: Tuple[Tuple[str, int, int], ...] = ()
    calls: Tuple[Tuple[str, int, int], ...] = ()

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "sources": [list(row) for row in self.sources],
            "calls": [list(row) for row in self.calls],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "Influence":
        return cls(
            sources=tuple(
                (str(k), int(l), int(c)) for k, l, c in data.get("sources", ())
            ),
            calls=tuple(
                (str(k), int(l), int(c)) for k, l, c in data.get("calls", ())
            ),
        )

    def merged(self, other: "Influence") -> "Influence":
        return Influence(
            sources=self.sources + other.sources,
            calls=self.calls + other.calls,
        )

    @property
    def empty(self) -> bool:
        return not self.sources and not self.calls


@dataclass(frozen=True)
class FunctionSummary:
    """The taint skeleton of one function or method."""

    #: Qualified name within the module (``Class.method`` or ``func``).
    qualname: str
    line: int
    col: int
    #: Enclosing class name, or "" for module-level functions.
    owner: str = ""
    #: What feeds this function's return value.
    returns: Influence = field(default_factory=Influence)
    #: ``self.<attr> = expr`` writes: (attr, line, col, influence).
    state_writes: Tuple[Tuple[str, int, int, Influence], ...] = ()
    #: Event-time arguments of schedule/post/post_in calls:
    #: (scheduler name, line, col, influence of the time/delay arg).
    time_args: Tuple[Tuple[str, int, int, Influence], ...] = ()
    #: Every call site (raw name, line) — the call-graph edge list.
    calls: Tuple[Tuple[str, int], ...] = ()

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "col": self.col,
            "owner": self.owner,
            "returns": self.returns.to_jsonable(),
            "state_writes": [
                [attr, line, col, influence.to_jsonable()]
                for attr, line, col, influence in self.state_writes
            ],
            "time_args": [
                [name, line, col, influence.to_jsonable()]
                for name, line, col, influence in self.time_args
            ],
            "calls": [list(row) for row in self.calls],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=str(data["qualname"]),
            line=int(data["line"]),
            col=int(data["col"]),
            owner=str(data.get("owner", "")),
            returns=Influence.from_jsonable(data.get("returns", {})),
            state_writes=tuple(
                (str(attr), int(line), int(col), Influence.from_jsonable(inf))
                for attr, line, col, inf in data.get("state_writes", ())
            ),
            time_args=tuple(
                (str(name), int(line), int(col), Influence.from_jsonable(inf))
                for name, line, col, inf in data.get("time_args", ())
            ),
            calls=tuple((str(n), int(l)) for n, l in data.get("calls", ())),
        )


@dataclass(frozen=True)
class ClassSummary:
    """Layout facts about one class definition."""

    name: str
    line: int
    #: Base-class names as written (resolved against bindings later).
    bases: Tuple[str, ...] = ()
    #: ``__slots__`` entries when declared as a literal.
    slots: Tuple[str, ...] = ()
    #: Method names defined in the class body (including properties).
    methods: Tuple[str, ...] = ()

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": list(self.bases),
            "slots": list(self.slots),
            "methods": list(self.methods),
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "ClassSummary":
        return cls(
            name=str(data["name"]),
            line=int(data["line"]),
            bases=tuple(str(b) for b in data.get("bases", ())),
            slots=tuple(str(s) for s in data.get("slots", ())),
            methods=tuple(str(m) for m in data.get("methods", ())),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the whole-program passes need from one module."""

    #: Dotted module name (``repro.tcp.base``; loose files use stems).
    module: str
    #: Path relative to the repro package root (rule-scoping key).
    rel: str
    #: Path as given to the linter (finding attribution).
    path: str
    #: Local name -> dotted target for imports (``rng`` ->
    #: ``repro.sim.rng``, ``stream`` -> ``repro.sim.rng.stream``).
    bindings: Dict[str, str] = field(default_factory=dict)
    #: Dotted modules this module imports (project-graph edges are the
    #: subset that resolves to project modules).
    imports: Tuple[str, ...] = ()
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: ``{"record": "<kind>", ...}`` literals: (kind, fields, dynamic,
    #: line, col) — ``dynamic`` marks ``**``-expansions / computed keys.
    record_literals: Tuple[Tuple[str, Tuple[str, ...], bool, int, int], ...] = ()
    #: Suppression pragmas (line -> [(slug, reason)]), carried in the
    #: summary so cached deep passes can honor them without re-parsing.
    pragmas: Dict[int, List[Tuple[str, str]]] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "rel": self.rel,
            "path": self.path,
            "bindings": dict(self.bindings),
            "imports": list(self.imports),
            "functions": {
                name: fn.to_jsonable() for name, fn in self.functions.items()
            },
            "classes": {
                name: klass.to_jsonable()
                for name, klass in self.classes.items()
            },
            "record_literals": [
                [kind, list(fields), dynamic, line, col]
                for kind, fields, dynamic, line, col in self.record_literals
            ],
            "pragmas": {
                str(line): [list(pair) for pair in pairs]
                for line, pairs in self.pragmas.items()
            },
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "ModuleSummary":
        return cls(
            module=str(data["module"]),
            rel=str(data["rel"]),
            path=str(data["path"]),
            bindings={str(k): str(v) for k, v in data.get("bindings", {}).items()},
            imports=tuple(str(m) for m in data.get("imports", ())),
            functions={
                str(name): FunctionSummary.from_jsonable(fn)
                for name, fn in data.get("functions", {}).items()
            },
            classes={
                str(name): ClassSummary.from_jsonable(klass)
                for name, klass in data.get("classes", {}).items()
            },
            record_literals=tuple(
                (
                    str(kind),
                    tuple(str(f) for f in fields),
                    bool(dynamic),
                    int(line),
                    int(col),
                )
                for kind, fields, dynamic, line, col in data.get(
                    "record_literals", ()
                )
            ),
            pragmas={
                int(line): [(str(slug), str(reason)) for slug, reason in pairs]
                for line, pairs in data.get("pragmas", {}).items()
            },
        )


# ----------------------------------------------------------------------
# Dotted-module-name derivation
# ----------------------------------------------------------------------
def module_name_for(path: str, rel: str) -> str:
    """Dotted module name for a file.

    Files under a ``repro`` package dir get their real import name
    (``repro.tcp.base``); loose files (tests, fixtures) get a stable
    stand-in derived from the filename — they can still *be* analyzed,
    they just cannot be the target of an absolute ``repro.*`` import.
    """
    parts = os.path.normpath(path).split(os.sep)
    if "repro" in parts:
        tail = rel[:-3] if rel.endswith(".py") else rel
        dotted = "repro." + tail.replace("/", ".") if tail else "repro"
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        return dotted
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    return stem


# ----------------------------------------------------------------------
# Expression influence extraction
# ----------------------------------------------------------------------
_SCHEDULER_TIME_ARG0 = frozenset({"schedule", "post"})
_SCHEDULER_DELAY_ARG0 = frozenset({"schedule_in", "post_in", "_post_in"})


def _call_raw_name(func: ast.expr) -> Optional[str]:
    """The call target as a dotted string, or None when dynamic."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ExprInfo:
    """Mutable influence accumulator for one expression walk."""

    __slots__ = ("sources", "calls", "names")

    def __init__(self) -> None:
        self.sources: List[Tuple[str, int, int]] = []
        self.calls: List[Tuple[str, int, int]] = []
        self.names: List[str] = []


class _ModuleIndexer:
    """One pass over a parsed module producing its :class:`ModuleSummary`."""

    def __init__(self, mod: ParsedModule) -> None:
        self.mod = mod
        self.module = module_name_for(mod.path, mod.rel)
        self.bindings: Dict[str, str] = {}
        self.imports: List[str] = []
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}
        self.record_literals: List[
            Tuple[str, Tuple[str, ...], bool, int, int]
        ] = []

    # -- imports -------------------------------------------------------
    def _package(self) -> str:
        """The package containing this module (for relative imports)."""
        if self.mod.rel.endswith("__init__.py"):
            return self.module
        return self.module.rpartition(".")[0]

    def _index_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    self.imports.append(item.name)
                    self.bindings[item.asname or item.name.split(".")[0]] = (
                        item.name if item.asname else item.name.split(".")[0]
                    )
                    if item.asname is None and "." in item.name:
                        # `import a.b.c` binds `a`; record the full path
                        # too so `a.b.c.f()` resolves.
                        self.bindings[item.name] = item.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    package = self._package()
                    for _ in range(node.level - 1):
                        package = package.rpartition(".")[0]
                    base = f"{package}.{base}" if base else package
                for item in node.names:
                    if item.name == "*":
                        # Only a star import depends on the package
                        # itself; named imports are tracked per target
                        # below, which keeps the dependency graph (and
                        # therefore deep-cache invalidation) tight.
                        if base:
                            self.imports.append(base)
                        continue
                    target = f"{base}.{item.name}" if base else item.name
                    self.bindings[item.asname or item.name] = target
                    # `from repro.sim import rng` imports a module too.
                    self.imports.append(target)

    # -- expression influence ------------------------------------------
    def _source_kind(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                return "object-id"
            if func.id == "hash":
                return "object-hash"
            target = self.bindings.get(func.id, "")
            tail = target.rpartition(".")[2]
            if target.startswith("random.") and tail in _RANDOM_FUNCS:
                return "module-random"
            if target.startswith("time.") and tail in _WALLCLOCK_FUNCS:
                return "wallclock"
            if target == "os.urandom":
                return "os-urandom"
            if target.startswith("uuid.") and tail in _UUID_FUNCS:
                return "uuid"
            if target.startswith("secrets."):
                return "os-urandom"
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = self.bindings.get(func.value.id, "")
            if owner == "random" and func.attr in _RANDOM_FUNCS:
                return "module-random"
            if owner == "time" and func.attr in _WALLCLOCK_FUNCS:
                return "wallclock"
            if owner == "os" and func.attr == "urandom":
                return "os-urandom"
            if owner == "uuid" and func.attr in _UUID_FUNCS:
                return "uuid"
            if owner == "secrets":
                return "os-urandom"
        return None

    def _expr_info(self, expr: ast.expr, info: _ExprInfo) -> None:
        """Accumulate sources/calls/names feeding ``expr``."""
        if isinstance(expr, ast.Name):
            info.names.append(expr.id)
            return
        if isinstance(expr, ast.Call):
            kind = self._source_kind(expr)
            line = expr.lineno
            col = expr.col_offset
            if kind is not None:
                info.sources.append((kind, line, col))
            else:
                raw = _call_raw_name(expr.func)
                if raw is not None:
                    info.calls.append((raw, line, col))
            for arg in expr.args:
                self._expr_info(arg, info)
            for keyword in expr.keywords:
                self._expr_info(keyword.value, info)
            return
        if isinstance(expr, (ast.Lambda,)):
            return  # a deferred body is not a value flow
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr_info(child, info)

    def _influence(
        self, expr: ast.expr, env: Mapping[str, Influence]
    ) -> Influence:
        """Influence of ``expr``, resolving local names through ``env``."""
        info = _ExprInfo()
        self._expr_info(expr, info)
        sources = list(info.sources)
        calls = list(info.calls)
        for name in info.names:
            bound = env.get(name)
            if bound is not None:
                sources.extend(bound.sources)
                calls.extend(bound.calls)
        return Influence(sources=tuple(sources), calls=tuple(calls))

    # -- functions -----------------------------------------------------
    def _is_set_iterable(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in ("set", "frozenset")
        return False

    def _walk_stmts(
        self, body: Sequence[ast.stmt]
    ) -> Tuple[List[ast.stmt], List[Tuple[ast.FunctionDef, str]]]:
        """Flatten a body, stopping at nested function/class scopes."""
        flat: List[ast.stmt] = []
        stack = list(body)
        while stack:
            stmt = stack.pop(0)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            flat.append(stmt)
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, list):  # pragma: no cover - ast quirk
                    stack.extend(
                        item for item in child if isinstance(item, ast.stmt)
                    )
        return flat, []

    def _summarize_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef", owner: str
    ) -> FunctionSummary:
        qualname = f"{owner}.{node.name}" if owner else node.name
        flat, _nested = self._walk_stmts(node.body)

        # Collect assignments once; iterate the name environment to a
        # fixpoint so `a = src(); b = a; self.x = b` resolves without
        # flow sensitivity.
        assignments: List[Tuple[str, ast.expr]] = []
        set_loops: List[Tuple[str, int, int]] = []
        for stmt in flat:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        assignments.append((target.id, stmt.value))
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    assignments.append((stmt.target.id, stmt.value))
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    assignments.append((stmt.target.id, stmt.value))
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if isinstance(stmt.target, ast.Name) and self._is_set_iterable(
                    stmt.iter
                ):
                    set_loops.append(
                        (stmt.target.id, stmt.iter.lineno, stmt.iter.col_offset)
                    )

        env: Dict[str, Influence] = {}
        for name, line, col in set_loops:
            env[name] = Influence(sources=(("set-order", line, col),))
        for _ in range(8):  # fixpoint cap; chains longer than 8 are absurd
            changed = False
            for name, value in assignments:
                influence = self._influence(value, env)
                previous = env.get(name)
                if previous is None or (
                    set(influence.sources) - set(previous.sources)
                    or set(influence.calls) - set(previous.calls)
                ):
                    merged = (
                        influence
                        if previous is None
                        else Influence(
                            sources=tuple(
                                dict.fromkeys(previous.sources + influence.sources)
                            ),
                            calls=tuple(
                                dict.fromkeys(previous.calls + influence.calls)
                            ),
                        )
                    )
                    env[name] = merged
                    changed = True
            if not changed:
                break

        returns = Influence()
        state_writes: List[Tuple[str, int, int, Influence]] = []
        time_args: List[Tuple[str, int, int, Influence]] = []
        calls: List[Tuple[str, int]] = []

        for stmt in flat:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                returns = returns.merged(self._influence(stmt.value, env))
            targets: Sequence[ast.expr] = ()
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets, value = (stmt.target,), stmt.value
            if value is not None:
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        influence = self._influence(value, env)
                        if not influence.empty:
                            state_writes.append(
                                (
                                    target.attr,
                                    target.lineno,
                                    target.col_offset,
                                    influence,
                                )
                            )

        for stmt in flat:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                raw = _call_raw_name(sub.func)
                if raw is None:
                    continue
                calls.append((raw, sub.lineno))
                tail = raw.rpartition(".")[2]
                if (
                    tail in _SCHEDULER_TIME_ARG0
                    or tail in _SCHEDULER_DELAY_ARG0
                ) and sub.args:
                    influence = self._influence(sub.args[0], env)
                    if not influence.empty:
                        time_args.append(
                            (tail, sub.lineno, sub.col_offset, influence)
                        )

        return FunctionSummary(
            qualname=qualname,
            line=node.lineno,
            col=node.col_offset,
            owner=owner,
            returns=returns,
            state_writes=tuple(state_writes),
            time_args=tuple(time_args),
            calls=tuple(dict.fromkeys(calls)),
        )

    # -- classes -------------------------------------------------------
    def _summarize_class(self, node: ast.ClassDef) -> ClassSummary:
        bases = []
        for base in node.bases:
            raw = _call_raw_name(base)
            if raw is not None:
                bases.append(raw)
        slots: List[str] = []
        methods: List[str] = []

        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else (stmt.target,)
                )
                names = [
                    t.id for t in targets if isinstance(t, ast.Name)
                ]
                value = stmt.value
                if "__slots__" in names and isinstance(
                    value, (ast.Tuple, ast.List, ast.Set)
                ):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            slots.append(element.value)

        return ClassSummary(
            name=node.name,
            line=node.lineno,
            bases=tuple(bases),
            slots=tuple(slots),
            methods=tuple(methods),
        )

    # -- record literals -----------------------------------------------
    def _index_record_literals(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Dict):
                continue
            kind: Optional[str] = None
            fields: List[str] = []
            dynamic = False
            for key, value in zip(node.keys, node.values):
                if key is None:  # ** expansion
                    dynamic = True
                    continue
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    fields.append(key.value)
                    if key.value == "record" and isinstance(
                        value, ast.Constant
                    ) and isinstance(value.value, str):
                        kind = value.value
                else:
                    dynamic = True
            if kind is not None:
                self.record_literals.append(
                    (kind, tuple(fields), dynamic, node.lineno, node.col_offset)
                )

    # -- top level -----------------------------------------------------
    def run(self) -> ModuleSummary:
        tree = self.mod.tree
        self._index_imports(tree)
        self._index_record_literals(tree)
        assert isinstance(tree, ast.Module)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = self._summarize_function(stmt, "")
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = self._summarize_class(stmt)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        summary = self._summarize_function(sub, stmt.name)
                        self.functions[summary.qualname] = summary
        return ModuleSummary(
            module=self.module,
            rel=self.mod.rel,
            path=self.mod.path,
            bindings=self.bindings,
            imports=tuple(dict.fromkeys(self.imports)),
            functions=self.functions,
            classes=self.classes,
            record_literals=tuple(self.record_literals),
            pragmas=self.mod.pragmas,
        )


def summarize_module(mod: ParsedModule) -> ModuleSummary:
    """Produce the :class:`ModuleSummary` for one parsed module."""
    return _ModuleIndexer(mod).run()


# ----------------------------------------------------------------------
# Project
# ----------------------------------------------------------------------
class Project:
    """All module summaries plus derived cross-module indexes."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        #: module dotted name -> summary (insertion order = sorted rel).
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in sorted(summaries, key=lambda s: s.path):
            self.modules[summary.module] = summary
        #: module -> project modules its *analysis* can reach.  Edges
        #: come from bindings the analyses actually resolve through —
        #: call-site heads and class bases — not from raw import
        #: statements: a module imported
        #: only for attribute access (``import repro`` to read
        #: ``__version__``) cannot influence any finding, and counting
        #: it would chain half the tree through the re-export hubs and
        #: gut deep-cache incrementality.  Package ``__init__`` modules
        #: keep edges for *all* their bindings: re-exporting is their
        #: function, and name resolution traverses them.
        self.deps: Dict[str, Tuple[str, ...]] = {}
        for name, summary in self.modules.items():
            deps = []
            for target in self._used_targets(summary):
                resolved = self._resolve_module(target)
                if resolved is not None and resolved != name:
                    deps.append(resolved)
            self.deps[name] = tuple(dict.fromkeys(deps))

    @staticmethod
    def _used_targets(summary: ModuleSummary) -> List[str]:
        """Dotted targets the analyses may resolve through, in order."""
        targets: List[str] = []
        if summary.rel.endswith("__init__.py"):
            targets.extend(summary.bindings.values())
        heads: List[str] = []
        for fn in summary.functions.values():
            for raw, _line in fn.calls:
                heads.append(raw)
        for klass in summary.classes.values():
            heads.extend(klass.bases)
        for raw in heads:
            head, _, rest = raw.partition(".")
            if head in ("self", "cls"):
                continue
            bound = summary.bindings.get(head)
            if bound is None:
                continue
            targets.append(f"{bound}.{rest}" if rest else bound)
        return targets

    def _resolve_module(self, dotted: str) -> Optional[str]:
        """Longest project-module prefix of a dotted import target."""
        candidate = dotted
        while candidate:
            if candidate in self.modules:
                return candidate
            candidate = candidate.rpartition(".")[0]
        return None

    def transitive_deps(self, module: str) -> Tuple[str, ...]:
        """All project modules reachable from ``module`` via imports."""
        seen: Set[str] = set()
        stack = list(self.deps.get(module, ()))
        while stack:
            dep = stack.pop()
            if dep in seen:
                continue
            seen.add(dep)
            stack.extend(self.deps.get(dep, ()))
        return tuple(sorted(seen))

    def dependents(self, module: str) -> Tuple[str, ...]:
        """All project modules that transitively import ``module``."""
        return tuple(
            sorted(
                name
                for name in self.modules
                if name != module and module in self.transitive_deps(name)
            )
        )

    def find_class(
        self, module: str, name: str
    ) -> Optional[Tuple[str, ClassSummary]]:
        """Resolve ``name`` (as written in ``module``) to a class."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        if name in summary.classes:
            return module, summary.classes[name]
        target = summary.bindings.get(name)
        if target is None:
            return None
        owner = self._resolve_module(target)
        if owner is None:
            return None
        class_name = target[len(owner) + 1 :] if target != owner else ""
        owner_summary = self.modules.get(owner)
        if owner_summary is not None and class_name in owner_summary.classes:
            return owner, owner_summary.classes[class_name]
        return None

    def class_mro(
        self, module: str, name: str
    ) -> List[Tuple[str, ClassSummary]]:
        """The class plus its project-resolvable bases, MRO-ish order."""
        result: List[Tuple[str, ClassSummary]] = []
        seen: Set[Tuple[str, str]] = set()

        def visit(mod_name: str, class_name: str) -> None:
            if (mod_name, class_name) in seen:
                return
            seen.add((mod_name, class_name))
            found = self.find_class(mod_name, class_name)
            if found is None:
                return
            owner, summary = found
            result.append((owner, summary))
            for base in summary.bases:
                visit(owner, base.rpartition(".")[2] if "." in base else base)

        visit(module, name)
        return result
