"""The rule catalog: determinism, hot-path discipline, and hygiene.

Each rule is a small AST pass over one parsed module.  Rules are
project-specific on purpose — they encode invariants of *this*
reproduction (the seeded-RNG discipline of ``sim/rng.py``, the PR 4
zero-allocation dispatch contract, the Table 1/2 sender invariants) that
a generic linter cannot know.  ``docs/STATIC_ANALYSIS.md`` documents
every rule with its rationale and examples; keep it in sync when adding
one.

A rule sees a :class:`~repro.lint.engine.ParsedModule` and yields
:class:`~repro.lint.findings.Finding` objects.  Scoping (which files a
rule applies to) keys off the module path *relative to the repro
package* (``mod.rel``), so fixture tests can exercise any scope by
passing ``rel=...`` to :func:`~repro.lint.engine.lint_source`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding

__all__ = [
    "DEEP_RULES",
    "DeepRuleInfo",
    "RULES",
    "Rule",
    "deep_rule_by_slug",
    "rule_by_slug",
]


class Rule:
    """Base class: one named, scoped AST check."""

    #: Slug used in pragmas (``# lint: allow-<slug>(reason)``).
    slug: str = ""
    #: Stable code (``REP1xx`` determinism, ``REP2xx`` hot path,
    #: ``REP3xx`` hygiene).
    code: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""

    def applies(self, mod: "ParsedModule") -> bool:  # noqa: F821
        return True

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        raise NotImplementedError

    def finding(
        self,
        mod: "ParsedModule",  # noqa: F821
        node: ast.AST,
        message: str,
        anchor: Optional[ast.AST] = None,
    ) -> Finding:
        """Build a finding at ``node``.

        ``anchor`` (default: ``node`` itself) is the definition the
        finding belongs to; when it is a decorated ``def``/``class``,
        a pragma above the first decorator — or on/above the ``def``
        line itself — also suppresses the finding, so callers never
        have to thread a comment between decorators and signature.
        """
        return Finding(
            rule=self.slug,
            code=self.code,
            path=mod.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            suppress_lines=_anchor_lines(anchor if anchor is not None else node),
        )


def _anchor_lines(node: ast.AST) -> Tuple[int, ...]:
    """Extra pragma-anchor lines for a decorated definition: the ``def``
    line, the line above it (below the last decorator), and the line
    above the first decorator."""
    decorators = getattr(node, "decorator_list", None)
    if not decorators:
        return ()
    lineno = getattr(node, "lineno", 1)
    first = min(dec.lineno for dec in decorators)
    return (lineno, lineno - 1, first - 1)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _module_aliases(tree: ast.AST, module: str) -> Set[str]:
    """Names that refer to ``module`` after ``import module [as alias]``."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module:
                    aliases.add(item.asname or item.name)
    return aliases


def _attr_tail(node: ast.expr) -> Optional[str]:
    """The final identifier of a Name/Attribute chain, or None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _base_name(node: ast.expr) -> Optional[str]:
    return _attr_tail(node)


# ----------------------------------------------------------------------
# Determinism family (REP1xx)
# ----------------------------------------------------------------------
#: ``random``-module callables that draw from (or reseed) an RNG.
_RANDOM_BANNED = frozenset(
    {
        "random", "seed", "randint", "randrange", "randbytes", "choice",
        "choices", "shuffle", "sample", "uniform", "gauss", "expovariate",
        "normalvariate", "lognormvariate", "betavariate", "gammavariate",
        "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "binomialvariate", "Random", "SystemRandom",
    }
)


class ModuleRandomRule(Rule):
    """No global-``random`` draws or ad-hoc RNG construction.

    Every random draw must come from a named, seeded stream of
    :class:`repro.sim.rng.RngRegistry` — the module-level functions use
    one hidden process-global ``Random``, so any call to them makes
    results depend on import order and on every other component's draw
    history.  Constructing ``random.Random(...)`` directly is flagged
    too: a stream that does not go through ``derive_child_seed`` breaks
    the add-a-component-without-perturbing-others guarantee.  Annotating
    with ``random.Random`` (no call) is fine.
    """

    slug = "module-random"
    code = "REP101"
    summary = "random draws must come from the seeded RngRegistry"

    _EXEMPT = ("sim/rng.py",)

    def applies(self, mod: "ParsedModule") -> bool:  # noqa: F821
        return mod.rel not in self._EXEMPT

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        aliases = _module_aliases(mod.tree, "random")
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for item in node.names:
                    if item.name in _RANDOM_BANNED:
                        yield self.finding(
                            mod,
                            node,
                            f"'from random import {item.name}' bypasses the "
                            "seeded RngRegistry; draw from a named "
                            "sim.rng.stream(...) instead",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                    and func.attr in _RANDOM_BANNED
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"call to random.{func.attr}() outside sim/rng.py; "
                        "use a named RngRegistry stream so runs stay "
                        "reproducible",
                    )


#: Wall-clock readers (and ``sleep``, which has no place in simulated
#: time either).
_TIME_BANNED = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "sleep",
    }
)


class WallclockRule(Rule):
    """No wall-clock reads outside the engine/executor/profiler.

    Simulation logic must read :attr:`Simulator.now`; a ``time.time()``
    in a component couples results to host speed, which is exactly the
    silent-divergence failure mode of mis-specified timer arithmetic.
    The engine (watchdog + profiling) and the sweep executor (per-cell
    wall budgets, retry backoff) legitimately measure real time.
    """

    slug = "wallclock"
    code = "REP102"
    summary = "wall-clock reads only in sim/engine.py, sim/profile.py, exec/runner.py"

    _ALLOWED = ("sim/engine.py", "sim/profile.py", "exec/runner.py")

    def applies(self, mod: "ParsedModule") -> bool:  # noqa: F821
        return mod.rel not in self._ALLOWED

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        aliases = _module_aliases(mod.tree, "time")
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for item in node.names:
                    if item.name in _TIME_BANNED:
                        yield self.finding(
                            mod,
                            node,
                            f"'from time import {item.name}' in simulation "
                            "code; read Simulator.now instead of the wall "
                            "clock",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                    and func.attr in _TIME_BANNED
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"wall-clock call time.{func.attr}() outside the "
                        "engine/executor allowlist; simulation logic must "
                        "use Simulator.now",
                    )


def _is_set_expr(node: ast.expr, set_vars: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _attr_tail(node.func)
        if name in ("set", "frozenset") and isinstance(node.func, ast.Name):
            return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    return False


class SetIterationRule(Rule):
    """No iteration over bare sets (iterate ``sorted(...)`` instead).

    Set iteration order depends on hash values and insertion/deletion
    history; if that order reaches scheduling decisions (which packet to
    retransmit first, which flow starts first), two runs of the same
    seed can diverge.  The rule flags ``for``/comprehension iteration
    directly over a set literal, a ``set()``/``frozenset()`` call, or a
    local assigned one in the same scope — wrap in ``sorted(...)`` to
    fix.
    """

    slug = "set-iteration"
    code = "REP103"
    summary = "iterate sorted(set), never a bare set (ordering determinism)"

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        scopes: List[ast.AST] = [mod.tree]
        scopes.extend(
            node
            for node in ast.walk(mod.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            set_vars: Set[str] = set()
            for node in ast.walk(scope):
                if node is not scope and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue  # inner scopes handled by their own pass
                if isinstance(node, ast.Assign) and _is_set_expr(
                    node.value, set()
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_vars.add(target.id)
            iterables: List[ast.expr] = []
            for node in ast.walk(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if _is_set_expr(iterable, set_vars):
                    yield self.finding(
                        mod,
                        iterable,
                        "iteration over a bare set: order is "
                        "hash/history-dependent; iterate sorted(...) so "
                        "ordering cannot leak into scheduling",
                    )


class UnsortedJsonRule(Rule):
    """Hash inputs must serialize with ``sort_keys=True``.

    In modules that compute content hashes (anything importing
    ``hashlib`` — the result cache being the canonical case), a
    ``json.dumps`` without ``sort_keys=True`` makes the digest depend on
    dict construction order: two semantically identical cells would get
    different cache keys, silently defeating result reuse.
    """

    slug = "unsorted-json"
    code = "REP104"
    summary = "json.dumps in hashing modules must pass sort_keys=True"

    def applies(self, mod: "ParsedModule") -> bool:  # noqa: F821
        return bool(_module_aliases(mod.tree, "hashlib"))

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        aliases = _module_aliases(mod.tree, "json")
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
                and func.attr == "dumps"
            ):
                continue
            sorts = any(
                keyword.arg == "sort_keys"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            )
            if not sorts:
                yield self.finding(
                    mod,
                    node,
                    "json.dumps() in a hashing module without "
                    "sort_keys=True: the digest becomes sensitive to dict "
                    "construction order",
                )


#: Serialization modules whose byte output is interpreter-dependent
#: and whose load side executes arbitrary reduction callables.
_PICKLE_MODULES = frozenset(
    {"pickle", "cPickle", "_pickle", "dill", "cloudpickle", "shelve", "marshal"}
)


class PickleRule(Rule):
    """Pickle only inside the checkpoint subsystem.

    Pickle bytes are not a stable artifact format: they are
    protocol/refactor-sensitive, and loading them executes arbitrary
    ``__reduce__`` callables.  Results, traces, and metrics must travel
    through the registered JSON codecs
    (:mod:`repro.experiments.serialize`, ``repro.obs/v1``) so cached
    artifacts survive refactors and stay inspectable.  The one sanctioned
    consumer is :mod:`repro.checkpoint` — a checkpoint *is* a live object
    graph, same-version by construction (the schema/version meta is
    verified before the graph section is ever unpickled).
    """

    slug = "pickle"
    code = "REP105"
    summary = "pickle-family imports only in repro.checkpoint"

    _ALLOWED_PREFIXES = ("checkpoint/",)

    def applies(self, mod: "ParsedModule") -> bool:  # noqa: F821
        return not mod.rel.startswith(self._ALLOWED_PREFIXES)

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    root = item.name.split(".")[0]
                    if root in _PICKLE_MODULES:
                        yield self.finding(
                            mod,
                            node,
                            f"import of {item.name!r} outside the checkpoint "
                            "subsystem: persistent artifacts must use the "
                            "registered JSON codecs, not pickle bytes",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                root = node.module.split(".")[0]
                if root in _PICKLE_MODULES:
                    yield self.finding(
                        mod,
                        node,
                        f"'from {node.module} import ...' outside the "
                        "checkpoint subsystem: persistent artifacts must "
                        "use the registered JSON codecs, not pickle bytes",
                    )


# ----------------------------------------------------------------------
# Hot-path family (REP2xx)
# ----------------------------------------------------------------------
_EXCEPTION_SUFFIXES = ("Error", "Exception", "Warning")


def _is_exception_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _base_name(base)
        if name is None:
            continue
        if name in ("Exception", "BaseException") or name.endswith(
            _EXCEPTION_SUFFIXES
        ):
            return True
    return False


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
    return False


def _is_slotted_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if _attr_tail(decorator.func) != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


class SlotsRule(Rule):
    """Hot-path classes must declare ``__slots__``.

    Everything under ``sim/`` plus :class:`Packet` and :class:`Link` is
    instantiated or touched per event; ``__slots__`` removes the
    per-instance ``__dict__`` (smaller, faster attribute access) and —
    just as important after the PR 4 overhaul — makes an accidental new
    attribute (a typo'd counter, a stray cache) an immediate
    ``AttributeError`` instead of a silent slow leak.  Exception classes
    and ``Protocol`` definitions are exempt; ``@dataclass(slots=True)``
    counts as slotted.
    """

    slug = "slots"
    code = "REP201"
    summary = "classes in sim/, net/packet.py, net/link.py need __slots__"

    def applies(self, mod: "ParsedModule") -> bool:  # noqa: F821
        return mod.rel.startswith("sim/") or mod.rel in (
            "net/packet.py",
            "net/link.py",
        )

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exception_class(node):
                continue
            if any(_base_name(base) == "Protocol" for base in node.bases):
                continue
            if _has_slots(node) or _is_slotted_dataclass(node):
                continue
            yield self.finding(
                mod,
                node,
                f"hot-path class {node.name!r} has no __slots__ (and is "
                "not a slots=True dataclass): per-instance __dict__ costs "
                "memory and attribute-lookup time on the event path",
            )


_POST_NAMES = frozenset({"post", "post_in", "_post_in"})


class PostKwargsRule(Rule):
    """``post``/``post_in`` call sites: positional args, no lambdas.

    These are the fire-and-forget hot-path schedulers; a keyword call
    packs a per-call dict and a lambda allocates a closure per event —
    both of which PR 4 removed on purpose (cached bound method + args
    tuple).  Timers that need cancellation use ``schedule`` instead,
    which is not restricted.
    """

    slug = "post-kwargs"
    code = "REP202"
    summary = "post()/post_in() call sites must be positional and lambda-free"

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _attr_tail(node.func)
            if name not in _POST_NAMES:
                continue
            if node.keywords:
                yield self.finding(
                    mod,
                    node,
                    f"keyword arguments in a {name}() call: hot-path "
                    "dispatch must pass (time, callback, args, label) "
                    "positionally (keyword calls pack a dict per event)",
                )
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    yield self.finding(
                        mod,
                        arg,
                        f"lambda passed to {name}(): allocates a closure "
                        "per event; pass a cached bound method plus an "
                        "args tuple instead",
                    )


_HANDLE_ATTRS = frozenset({"time", "seq", "callback"})


class HandleMutationRule(Rule):
    """Never mutate a scheduled event's ordering fields outside ``sim/``.

    Heap entries are ``(time, seq, ...)`` tuples compared during sift;
    the :class:`EventHandle` inside carries the same ``time``/``seq``
    and a ``callback`` that the engine clears on dispatch.  Writing any
    of them from component code desynchronizes the handle from its heap
    entry — the timer then fires at the *old* position while
    introspection reports the new one, the classic silently-diverging
    timer bug.  Cancel and reschedule instead.
    """

    slug = "handle-mutation"
    code = "REP203"
    summary = "no writes to EventHandle time/seq/callback outside sim/"

    def applies(self, mod: "ParsedModule") -> bool:  # noqa: F821
        return not mod.rel.startswith("sim/")

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        # Locals assigned from a .schedule()/.schedule_in() call, per
        # enclosing scope: any attribute write on them is flagged.
        scopes: List[ast.AST] = [mod.tree]
        scopes.extend(
            node
            for node in ast.walk(mod.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            handle_vars: Set[str] = set()
            for node in ast.walk(scope):
                if node is not scope and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    called = _attr_tail(node.value.func)
                    if called in ("schedule", "schedule_in"):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                handle_vars.add(target.id)
            for node in ast.walk(scope):
                if node is not scope and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                targets: Sequence[ast.expr] = ()
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = (node.target,)
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    owner = target.value
                    owner_name = _attr_tail(owner) or ""
                    from_schedule = (
                        isinstance(owner, ast.Name)
                        and owner.id in handle_vars
                    )
                    handle_ish = "handle" in owner_name.lower()
                    if target.attr in _HANDLE_ATTRS and (
                        from_schedule or handle_ish
                    ):
                        yield self.finding(
                            mod,
                            target,
                            f"write to {owner_name}.{target.attr}: mutating "
                            "a scheduled event's ordering/dispatch fields "
                            "desynchronizes it from its heap entry — "
                            "cancel() and reschedule instead",
                        )
                    elif from_schedule:
                        yield self.finding(
                            mod,
                            target,
                            f"attribute write on {owner_name} (a handle "
                            "returned by schedule()): handles are "
                            "engine-owned; cancel() and reschedule instead",
                        )


#: Modules with a compiled counterpart: mirrored by the C accelerator
#: (``repro._cext._core`` subclasses Simulator/Link/Node and resolves
#: their attributes by fixed slot offset) or on the experimental mypyc
#: leaf allowlist (``setup.py``, ``REPRO_BUILD_MYPYC``).  Kept in sync
#: with docs/COMPILED.md.
_COMPILED_MODULES = (
    "sim/engine.py",
    "net/link.py",
    "net/node.py",
    "net/queues.py",
    "sim/rng.py",
    "sim/profile.py",
)


class CompiledCompatRule(Rule):
    """No dynamic-attribute patterns in compiled-mirrored modules.

    The compiled engine resolves these classes' attributes by fixed slot
    offset at extension-init time, and mypyc compiles leaf modules to
    native attribute access; both break — at runtime, on the compiled
    build only — under patterns plain CPython tolerates:

    * ``del obj.attr`` / ``delattr(...)`` empties a typed slot that
      compiled readers assume is always filled;
    * ``setattr(obj, name, ...)`` with a computed name can create
      attributes no slot (hence no C offset) exists for;
    * ``obj.__dict__`` reads assume an instance dict that slotted and
      compiled instances do not have.

    Because the failure only reproduces on a checkout that built the
    extension, the lint flags the pattern on every build.
    """

    slug = "compiled-compat"
    code = "REP205"
    summary = (
        "compiled-mirrored modules: no del-attribute/setattr/__dict__ "
        "(breaks fixed-offset attribute access on the compiled build)"
    )

    def applies(self, mod: "ParsedModule") -> bool:  # noqa: F821
        return mod.rel in _COMPILED_MODULES

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        yield self.finding(
                            mod,
                            target,
                            f"del of attribute .{target.attr} in a "
                            "compiled-mirrored module: emptying a typed "
                            "slot breaks fixed-offset reads on the "
                            "compiled build — assign None instead",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                if node.func.id in ("setattr", "delattr"):
                    yield self.finding(
                        mod,
                        node,
                        f"{node.func.id}() in a compiled-mirrored module: "
                        "dynamic attribute names bypass the slot layout "
                        "the compiled build resolves at init time — use "
                        "a direct attribute assignment",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
                yield self.finding(
                    mod,
                    node,
                    "__dict__ access in a compiled-mirrored module: "
                    "slotted/compiled instances have no instance dict — "
                    "use object.__getstate__() or explicit attributes",
                )


# ----------------------------------------------------------------------
# Hygiene family (REP3xx)
# ----------------------------------------------------------------------
def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler's last statement is a bare ``raise``."""
    if not handler.body:
        return False
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and last.exc is None


class BroadExceptRule(Rule):
    """No ``except Exception`` without a reasoned pragma.

    A broad handler swallows :class:`SimulationError` subclasses — the
    watchdog and sanitizer signals that exist precisely to stop a
    silently-diverging run.  Handlers that end in a bare ``raise``
    (cleanup-then-propagate) are exempt; deliberate catch-alls (the
    sweep worker's capture-as-data guard) must carry
    ``# lint: allow-broad-except(reason)``.
    """

    slug = "broad-except"
    code = "REP301"
    summary = "no bare/broad except without a reasoned pragma"

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                broad = "bare except:"
            else:
                name = _attr_tail(node.type)
                if name not in ("Exception", "BaseException"):
                    continue
                broad = f"except {name}"
            if _reraises(node):
                continue
            yield self.finding(
                mod,
                node,
                f"{broad} swallows SimulationError/watchdog/sanitizer "
                "signals; narrow it, re-raise, or annotate with "
                "# lint: allow-broad-except(reason)",
            )


_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


class MutableDefaultRule(Rule):
    """No mutable default argument values."""

    slug = "mutable-default"
    code = "REP302"
    summary = "no mutable default argument values"

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                )
                if mutable:
                    yield self.finding(
                        mod,
                        default,
                        f"mutable default argument in {node.name}(): shared "
                        "across calls; default to None and construct inside",
                        anchor=node,
                    )


def _is_time_operand(node: ast.expr) -> bool:
    name = _attr_tail(node)
    if name is None:
        return False
    return (
        name == "now"
        or name.endswith("_time")
        or name in ("mxrtt", "deadline", "sent_time", "fire_at")
    )


class FloatTimeEqRule(Rule):
    """No ``==``/``!=`` on simulated-time quantities.

    Simulation times are accumulated floats (``now + delay`` chains);
    exact equality silently stops matching after enough accumulation —
    the divergence shows up as a timer that never coincides again, not
    as a crash.  Compare with ``<=``/``>=`` or an explicit tolerance.
    """

    slug = "float-time-eq"
    code = "REP303"
    summary = "no float == on simulated time; use ordering or a tolerance"

    def check(self, mod: "ParsedModule") -> Iterator[Finding]:  # noqa: F821
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if isinstance(left, ast.Constant) and left.value is None:
                    continue
                if isinstance(right, ast.Constant) and right.value is None:
                    continue
                if _is_time_operand(left) or _is_time_operand(right):
                    yield self.finding(
                        mod,
                        node,
                        "float equality on a simulated-time quantity: "
                        "accumulated-float == comparisons diverge silently; "
                        "use ordering comparisons or an explicit tolerance",
                    )


#: The registered rule set, in catalog order.
RULES: Tuple[Rule, ...] = (
    ModuleRandomRule(),
    WallclockRule(),
    SetIterationRule(),
    UnsortedJsonRule(),
    PickleRule(),
    SlotsRule(),
    PostKwargsRule(),
    HandleMutationRule(),
    CompiledCompatRule(),
    BroadExceptRule(),
    MutableDefaultRule(),
    FloatTimeEqRule(),
)

_BY_SLUG: Dict[str, Rule] = {rule.slug: rule for rule in RULES}


def rule_by_slug(slug: str) -> Optional[Rule]:
    """Look a rule up by its pragma slug."""
    return _BY_SLUG.get(slug)


# ----------------------------------------------------------------------
# Deep (whole-program) rule catalog
# ----------------------------------------------------------------------
class DeepRuleInfo:
    """Catalog metadata for a pass-based rule.

    The interprocedural and cross-artifact rules are not per-module AST
    visitors — they run as whole-program passes (:mod:`repro.lint.taint`,
    :mod:`repro.lint.xartifact`) under ``repro lint --deep``.  This
    record gives them the same catalog surface (code, pragma slug,
    ``--list-rules`` summary) as the syntactic rules.
    """

    __slots__ = ("slug", "code", "summary")

    def __init__(self, slug: str, code: str, summary: str) -> None:
        self.slug = slug
        self.code = code
        self.summary = summary


#: Whole-program rules, in catalog order.  REP11x extends the REP10x
#: determinism family across call/return boundaries; REP4xx checks the
#: python tree against its sibling artifacts (the C mirror, the
#: observability schema docs).
DEEP_RULES: Tuple[DeepRuleInfo, ...] = (
    DeepRuleInfo(
        "taint-state",
        "REP111",
        "no nondeterministic value may reach simulation state, even "
        "through call chains (path-reported)",
    ),
    DeepRuleInfo(
        "taint-schedule",
        "REP112",
        "no nondeterministic value may reach an event time argument "
        "(schedule/post/post_in), even through call chains",
    ),
    DeepRuleInfo(
        "c-mirror-drift",
        "REP401",
        "pure Simulator/Link/Node surface must be mirrored by the C "
        "extension tables or declared delegated in mirror_manifest.json",
    ),
    DeepRuleInfo(
        "obs-schema-drift",
        "REP403",
        "emitted repro.obs/v1 record fields must match the schema tables "
        "in docs/OBSERVABILITY.md",
    ),
)

_DEEP_BY_SLUG: Dict[str, DeepRuleInfo] = {info.slug: info for info in DEEP_RULES}


def deep_rule_by_slug(slug: str) -> Optional[DeepRuleInfo]:
    """Look a whole-program rule up by its pragma slug."""
    return _DEEP_BY_SLUG.get(slug)
