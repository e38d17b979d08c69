"""Per-rule fixture tests for the ``repro.lint`` rule catalog.

Every rule gets at least one positive fixture (a snippet that must be
flagged), one negative fixture (a near-miss that must pass), and a
pragma-suppressed fixture.  Fixtures are linted in-memory via
``lint_source(src, rel=...)``, with ``rel`` driving the same scoping the
rule applies to real files.
"""

import textwrap

from repro.lint import RULES, lint_source, rule_by_slug


def flagged(src, rel, slug):
    """Findings of one rule for a dedented in-memory snippet."""
    findings = lint_source(textwrap.dedent(src), rel=rel)
    return [finding for finding in findings if finding.rule == slug]


# ----------------------------------------------------------------------
# Catalog sanity
# ----------------------------------------------------------------------
def test_catalog_slugs_and_codes_unique():
    slugs = [rule.slug for rule in RULES]
    codes = [rule.code for rule in RULES]
    assert len(set(slugs)) == len(slugs)
    assert len(set(codes)) == len(codes)
    for rule in RULES:
        assert rule_by_slug(rule.slug) is rule
        assert rule.summary


def test_rule_by_slug_unknown():
    assert rule_by_slug("no-such-rule") is None


# ----------------------------------------------------------------------
# REP101 module-random
# ----------------------------------------------------------------------
def test_module_random_positive_draw():
    src = """
        import random
        x = random.random()
    """
    assert flagged(src, "net/foo.py", "module-random")


def test_module_random_positive_constructor_and_seed():
    src = """
        import random
        random.seed(7)
        r = random.Random(3)
    """
    assert len(flagged(src, "core/foo.py", "module-random")) == 2


def test_module_random_positive_from_import():
    src = "from random import choice\n"
    assert flagged(src, "net/foo.py", "module-random")


def test_module_random_negative_in_rng_module():
    src = """
        import random
        r = random.Random(3)
    """
    assert not flagged(src, "sim/rng.py", "module-random")


def test_module_random_negative_annotation_only():
    src = """
        import random
        def f(rng: random.Random) -> float:
            return rng.random()
    """
    assert not flagged(src, "net/foo.py", "module-random")


def test_module_random_pragma_suppressed():
    src = """
        import random
        r = random.Random(0)  # lint: allow-module-random(fixture reason)
    """
    assert not flagged(src, "net/foo.py", "module-random")


# ----------------------------------------------------------------------
# REP102 wallclock
# ----------------------------------------------------------------------
def test_wallclock_positive():
    src = """
        import time
        t = time.time()
    """
    assert flagged(src, "core/foo.py", "wallclock")


def test_wallclock_positive_from_import():
    src = "from time import perf_counter\n"
    assert flagged(src, "core/foo.py", "wallclock")


def test_wallclock_negative_allowlisted_module():
    src = """
        import time
        t = time.monotonic()
    """
    assert not flagged(src, "sim/engine.py", "wallclock")
    assert not flagged(src, "exec/runner.py", "wallclock")


def test_wallclock_negative_import_alone():
    assert not flagged("import time\n", "core/foo.py", "wallclock")


def test_wallclock_pragma_suppressed():
    src = """
        import time
        time.sleep(1.0)  # lint: allow-wallclock(fixture reason)
    """
    assert not flagged(src, "core/foo.py", "wallclock")


# ----------------------------------------------------------------------
# REP103 set-iteration
# ----------------------------------------------------------------------
def test_set_iteration_positive_literal():
    src = """
        for x in {1, 2, 3}:
            print(x)
    """
    assert flagged(src, "core/foo.py", "set-iteration")


def test_set_iteration_positive_local_set_variable():
    src = """
        def f(items):
            pending = set(items)
            for x in pending:
                print(x)
    """
    assert flagged(src, "core/foo.py", "set-iteration")


def test_set_iteration_positive_comprehension():
    src = "out = [y for y in {1, 2}]\n"
    assert flagged(src, "core/foo.py", "set-iteration")


def test_set_iteration_negative_sorted():
    src = """
        def f(items):
            pending = set(items)
            for x in sorted(pending):
                print(x)
    """
    assert not flagged(src, "core/foo.py", "set-iteration")


def test_set_iteration_negative_list():
    src = """
        for x in [1, 2]:
            print(x)
    """
    assert not flagged(src, "core/foo.py", "set-iteration")


def test_set_iteration_pragma_suppressed():
    src = """
        # lint: allow-set-iteration(fixture reason)
        for x in {1, 2}:
            print(x)
    """
    assert not flagged(src, "core/foo.py", "set-iteration")


# ----------------------------------------------------------------------
# REP104 unsorted-json
# ----------------------------------------------------------------------
def test_unsorted_json_positive():
    src = """
        import hashlib
        import json
        def key(d):
            return hashlib.sha256(json.dumps(d).encode()).hexdigest()
    """
    assert flagged(src, "exec/cache.py", "unsorted-json")


def test_unsorted_json_negative_sorted_keys():
    src = """
        import hashlib
        import json
        def key(d):
            blob = json.dumps(d, sort_keys=True)
            return hashlib.sha256(blob.encode()).hexdigest()
    """
    assert not flagged(src, "exec/cache.py", "unsorted-json")


def test_unsorted_json_negative_no_hashing():
    src = """
        import json
        def dump(d):
            return json.dumps(d)
    """
    assert not flagged(src, "exec/cache.py", "unsorted-json")


def test_unsorted_json_pragma_suppressed():
    src = """
        import hashlib
        import json
        blob = json.dumps({})  # lint: allow-unsorted-json(fixture reason)
    """
    assert not flagged(src, "exec/cache.py", "unsorted-json")


# ----------------------------------------------------------------------
# REP105 pickle
# ----------------------------------------------------------------------
def test_pickle_positive_import():
    src = """
        import pickle
        data = pickle.dumps({})
    """
    assert flagged(src, "exec/runner.py", "pickle")
    # The result cache stores JSON; it has no pickle exemption.
    assert flagged(src, "exec/cache.py", "pickle")


def test_pickle_positive_from_import_and_friends():
    src = """
        from pickle import dumps
        import cloudpickle
        import shelve
    """
    assert len(flagged(src, "obs/export.py", "pickle")) == 3


def test_pickle_positive_dotted_import():
    src = "import dill.settings\n"
    assert flagged(src, "net/foo.py", "pickle")


def test_pickle_negative_in_checkpoint_subsystem():
    src = """
        import pickle
        data = pickle.dumps({})
    """
    assert not flagged(src, "checkpoint/codec.py", "pickle")


def test_pickle_negative_unrelated_module_name():
    src = "from repro.checkpoint import save_checkpoint\n"
    assert not flagged(src, "experiments/fig6_multipath.py", "pickle")


def test_pickle_pragma_suppressed():
    src = """
        import pickle  # lint: allow-pickle(fixture reason)
    """
    assert not flagged(src, "exec/runner.py", "pickle")


# ----------------------------------------------------------------------
# REP201 slots
# ----------------------------------------------------------------------
def test_slots_positive_plain_class():
    src = """
        class Thing:
            def __init__(self):
                self.x = 1
    """
    assert flagged(src, "sim/foo.py", "slots")
    assert flagged(src, "net/link.py", "slots")


def test_slots_negative_has_slots():
    src = """
        class Thing:
            __slots__ = ("x",)
            def __init__(self):
                self.x = 1
    """
    assert not flagged(src, "sim/foo.py", "slots")


def test_slots_negative_slotted_dataclass():
    src = """
        from dataclasses import dataclass
        @dataclass(frozen=True, slots=True)
        class Thing:
            x: int
    """
    assert not flagged(src, "sim/foo.py", "slots")


def test_slots_negative_exception_and_protocol():
    src = """
        from typing import Protocol
        class FooError(Exception):
            pass
        class Policy(Protocol):
            def pick(self) -> int: ...
    """
    assert not flagged(src, "sim/foo.py", "slots")


def test_slots_negative_out_of_scope_module():
    src = """
        class Thing:
            pass
    """
    assert not flagged(src, "app/foo.py", "slots")


def test_slots_pragma_suppressed():
    src = """
        class Thing:  # lint: allow-slots(fixture reason)
            pass
    """
    assert not flagged(src, "sim/foo.py", "slots")


# ----------------------------------------------------------------------
# REP202 post-kwargs
# ----------------------------------------------------------------------
def test_post_kwargs_positive_keyword():
    src = "sim.post_in(1.0, cb, label='x')\n"
    assert flagged(src, "app/foo.py", "post-kwargs")


def test_post_kwargs_positive_lambda():
    src = "sim.post(0.0, lambda: None)\n"
    assert flagged(src, "app/foo.py", "post-kwargs")


def test_post_kwargs_positive_cached_bound_method():
    src = "self._post_in(1.0, cb, args=(p,))\n"
    assert flagged(src, "net/foo.py", "post-kwargs")


def test_post_kwargs_negative_positional():
    src = "sim.post_in(1.0, cb, None, 'x')\n"
    assert not flagged(src, "app/foo.py", "post-kwargs")


def test_post_kwargs_negative_schedule_keywords_allowed():
    src = "handle = sim.schedule(1.0, cb, label='x', seq=stamp)\n"
    assert not flagged(src, "app/foo.py", "post-kwargs")


def test_post_kwargs_pragma_suppressed():
    src = "sim.post(0.0, cb, label='x')  # lint: allow-post-kwargs(fixture reason)\n"
    assert not flagged(src, "app/foo.py", "post-kwargs")


# ----------------------------------------------------------------------
# REP203 handle-mutation
# ----------------------------------------------------------------------
def test_handle_mutation_positive_schedule_local():
    src = """
        def f(sim, cb):
            h = sim.schedule(1.0, cb)
            h.time = 2.0
    """
    assert flagged(src, "tcp/foo.py", "handle-mutation")


def test_handle_mutation_positive_handle_attribute():
    src = """
        def f(self):
            self._timer_handle.time = 3.0
    """
    assert flagged(src, "tcp/foo.py", "handle-mutation")


def test_handle_mutation_negative_inside_sim():
    src = """
        def f(self, target):
            target.callback = None
    """
    assert not flagged(src, "sim/engine.py", "handle-mutation")


def test_handle_mutation_negative_read_and_cancel():
    src = """
        def f(sim, cb):
            h = sim.schedule(1.0, cb)
            if h.time < 5.0:
                h.cancel()
    """
    assert not flagged(src, "tcp/foo.py", "handle-mutation")


def test_handle_mutation_pragma_suppressed():
    src = """
        def f(self):
            self._timer_handle.time = 3.0  # lint: allow-handle-mutation(fixture reason)
    """
    assert not flagged(src, "tcp/foo.py", "handle-mutation")


# ----------------------------------------------------------------------
# REP205 compiled-compat
# ----------------------------------------------------------------------
def test_compiled_compat_positive_del_attribute():
    src = """
        def f(self):
            del self._cache
    """
    assert flagged(src, "sim/engine.py", "compiled-compat")


def test_compiled_compat_positive_setattr():
    src = """
        def restore(obj, state):
            for name, value in state.items():
                setattr(obj, name, value)
    """
    assert flagged(src, "net/link.py", "compiled-compat")


def test_compiled_compat_positive_instance_dict():
    src = """
        def snapshot(self):
            return dict(self.__dict__)
    """
    assert flagged(src, "net/node.py", "compiled-compat")


def test_compiled_compat_negative_outside_allowlist():
    """The same patterns are fine in modules with no compiled mirror."""
    src = """
        def restore(obj, state):
            del obj.stale
            for name, value in state.items():
                setattr(obj, name, value)
            return obj.__dict__
    """
    assert not flagged(src, "checkpoint/snapshot.py", "compiled-compat")


def test_compiled_compat_negative_none_assignment_and_del_local():
    src = """
        def f(self):
            self._cache = None
            scratch = []
            del scratch
    """
    assert not flagged(src, "sim/engine.py", "compiled-compat")


def test_compiled_compat_pragma_suppressed():
    src = """
        def f(self):
            del self._cache  # lint: allow-compiled-compat(fixture reason)
    """
    assert not flagged(src, "sim/engine.py", "compiled-compat")


# ----------------------------------------------------------------------
# REP301 broad-except
# ----------------------------------------------------------------------
def test_broad_except_positive():
    src = """
        try:
            f()
        except Exception:
            pass
    """
    assert flagged(src, "exec/foo.py", "broad-except")


def test_broad_except_positive_bare():
    src = """
        try:
            f()
        except:
            pass
    """
    assert flagged(src, "exec/foo.py", "broad-except")


def test_broad_except_negative_narrow():
    src = """
        try:
            f()
        except ValueError:
            pass
    """
    assert not flagged(src, "exec/foo.py", "broad-except")


def test_broad_except_negative_cleanup_reraise():
    src = """
        try:
            f()
        except BaseException:
            cleanup()
            raise
    """
    assert not flagged(src, "exec/foo.py", "broad-except")


def test_broad_except_pragma_suppressed():
    src = """
        try:
            f()
        # lint: allow-broad-except(fixture reason)
        except Exception:
            pass
    """
    assert not flagged(src, "exec/foo.py", "broad-except")


# ----------------------------------------------------------------------
# REP302 mutable-default
# ----------------------------------------------------------------------
def test_mutable_default_positive():
    src = """
        def f(a=[], b={}, c=set()):
            return a, b, c
    """
    assert len(flagged(src, "core/foo.py", "mutable-default")) == 3


def test_mutable_default_positive_kwonly():
    src = """
        def f(*, a=[]):
            return a
    """
    assert flagged(src, "core/foo.py", "mutable-default")


def test_mutable_default_negative():
    src = """
        def f(a=None, b=(), c=0):
            return a, b, c
    """
    assert not flagged(src, "core/foo.py", "mutable-default")


def test_mutable_default_pragma_suppressed():
    src = """
        def f(a=[]):  # lint: allow-mutable-default(fixture reason)
            return a
    """
    assert not flagged(src, "core/foo.py", "mutable-default")


# ----------------------------------------------------------------------
# REP303 float-time-eq
# ----------------------------------------------------------------------
def test_float_time_eq_positive_now():
    src = "due = t == self.sim.now\n"
    assert flagged(src, "core/foo.py", "float-time-eq")


def test_float_time_eq_positive_time_suffix():
    src = "stale = sent_time != arrival\n"
    assert flagged(src, "core/foo.py", "float-time-eq")


def test_float_time_eq_negative_ordering():
    src = "due = self.sim.now >= deadline\n"
    assert not flagged(src, "core/foo.py", "float-time-eq")


def test_float_time_eq_negative_none_check():
    src = "unset = deadline == None\n"
    assert not flagged(src, "core/foo.py", "float-time-eq")


def test_float_time_eq_negative_unrelated_names():
    src = "same = count == total\n"
    assert not flagged(src, "core/foo.py", "float-time-eq")


def test_float_time_eq_pragma_suppressed():
    src = "due = t == self.sim.now  # lint: allow-float-time-eq(fixture reason)\n"
    assert not flagged(src, "core/foo.py", "float-time-eq")


# ----------------------------------------------------------------------
# REP001 pragma hygiene
# ----------------------------------------------------------------------
def test_pragma_empty_reason_is_a_finding():
    src = "x = 1  # lint: allow-slots()\n"
    assert flagged(src, "core/foo.py", "pragma")


def test_pragma_missing_parens_is_a_finding():
    src = "x = 1  # lint: allow-slots\n"
    assert flagged(src, "core/foo.py", "pragma")


def test_pragma_suppresses_same_line_and_line_above_only():
    src = """
        class A:  # lint: allow-slots(same line)
            pass
        # lint: allow-slots(line above)
        class B:
            pass
        # lint: allow-slots(too far away)

        class C:
            pass
    """
    findings = flagged(src, "sim/foo.py", "slots")
    assert [f.message for f in findings] == [
        "hot-path class 'C' has no __slots__ (and is not a slots=True "
        "dataclass): per-instance __dict__ costs memory and "
        "attribute-lookup time on the event path"
    ]


def test_pragma_for_a_different_rule_does_not_suppress():
    src = """
        class A:  # lint: allow-broad-except(wrong rule)
            pass
    """
    assert flagged(src, "sim/foo.py", "slots")


# ----------------------------------------------------------------------
# Pragma scoping on decorated definitions
# ----------------------------------------------------------------------
def test_pragma_above_decorator_suppresses_def_rule():
    src = """
        # lint: allow-mutable-default(fixture: shared default is the point)
        @staticmethod
        def f(x=[]):
            return x
    """
    assert not flagged(src, "core/foo.py", "mutable-default")


def test_pragma_between_decorator_and_def_suppresses():
    src = """
        @staticmethod
        # lint: allow-mutable-default(fixture: shared default is the point)
        def f(x=[]):
            return x
    """
    assert not flagged(src, "core/foo.py", "mutable-default")


def test_decorated_def_without_pragma_still_flagged():
    src = """
        @staticmethod
        def f(x=[]):
            return x
    """
    assert flagged(src, "core/foo.py", "mutable-default")


def test_pragma_above_decorator_wrong_rule_does_not_suppress():
    src = """
        # lint: allow-slots(wrong rule entirely)
        @staticmethod
        def f(x=[]):
            return x
    """
    assert flagged(src, "core/foo.py", "mutable-default")


# ----------------------------------------------------------------------
# Finding.to_record(): the stable exchange schema
# ----------------------------------------------------------------------
def test_finding_to_record_golden_schema():
    from repro.lint.findings import Finding

    finding = Finding(
        rule="module-random",
        code="REP101",
        path="src/repro/net/foo.py",
        line=3,
        col=4,
        message="a global-random draw",
        trace=("via jitter() at src/repro/net/bar.py:7",),
        suppress_lines=(2,),
    )
    # The record schema is load-bearing: the lint cache, the JSON
    # formatter, and SARIF conversion all round-trip through it.  Keys
    # may be added, never renamed or removed.
    assert finding.to_record() == {
        "rule": "module-random",
        "code": "REP101",
        "path": "src/repro/net/foo.py",
        "line": 3,
        "col": 4,
        "message": "a global-random draw",
        "trace": ["via jitter() at src/repro/net/bar.py:7"],
    }


def test_finding_record_round_trip():
    from repro.lint.findings import Finding

    finding = Finding(
        rule="wallclock",
        code="REP102",
        path="src/repro/sim/x.py",
        line=10,
        col=0,
        message="m",
    )
    back = Finding.from_record(finding.to_record())
    assert back.to_record() == finding.to_record()
