"""Seeded-mutation tests for the whole-program (``--deep``) passes.

Each test builds a tiny synthetic ``src/repro`` package in ``tmp_path``
(so modules get real ``repro.*`` import names and the artifact
discovery finds ``_cext/`` and ``docs/`` next to it), then asserts the
interprocedural rules fire exactly where a seeded mutation was planted
and stay quiet on the clean baseline.
"""

import json
import textwrap
from pathlib import Path

from repro.lint import run_analysis


def write_tree(tmp_path, files):
    """Write ``{relpath: content}`` under ``tmp_path``; return the
    ``src/repro`` package dir to lint."""
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return tmp_path / "src" / "repro"


def deep_findings(pkg, select):
    result = run_analysis(
        [str(pkg)], deep=True, use_cache=False, jobs=1, select=[select]
    )
    assert not result.errors, result.errors
    return result.findings


# ----------------------------------------------------------------------
# REP111/REP112: interprocedural determinism taint
# ----------------------------------------------------------------------
TAINT_HELPERS = """
    import random


    def jitter():
        return random.random()


    def scaled():
        return 2.0 * jitter()
"""

TAINT_SENDER = """
    from repro.tcp.helpers import scaled


    class Sender:
        def __init__(self, sim):
            self.cwnd = scaled()
"""


def test_rep111_two_hops_from_sender_state(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "src/repro/tcp/helpers.py": TAINT_HELPERS,
            "src/repro/tcp/sender.py": TAINT_SENDER,
        },
    )
    findings = deep_findings(pkg, "REP111")
    assert len(findings) == 1, [f.format() for f in findings]
    finding = findings[0]
    assert finding.path.endswith("tcp/sender.py")
    assert "self.cwnd" in finding.message
    # The finding carries the full call chain back to the source.
    chain = "\n".join(finding.trace)
    assert "scaled()" in chain
    assert "jitter()" in chain
    assert "helpers.py" in chain


def test_rep111_silent_when_source_is_pragma_blessed(tmp_path):
    blessed = TAINT_HELPERS.replace(
        "return random.random()",
        "return random.random()  "
        "# lint: allow-module-random(fixture: blessed origin)",
    )
    pkg = write_tree(
        tmp_path,
        {
            "src/repro/tcp/helpers.py": blessed,
            "src/repro/tcp/sender.py": TAINT_SENDER,
        },
    )
    assert not deep_findings(pkg, "REP111")


def test_rep111_silent_without_state_write(tmp_path):
    # The same tainted chain returned from a function (not written into
    # component state) is not a REP111.
    pkg = write_tree(
        tmp_path,
        {
            "src/repro/tcp/helpers.py": TAINT_HELPERS,
            "src/repro/tcp/pure_use.py": """
                from repro.tcp.helpers import scaled


                def compute():
                    return scaled()
            """,
        },
    )
    assert not deep_findings(pkg, "REP111")


def test_rep112_tainted_delay_reaches_scheduler(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "src/repro/app/timer.py": """
                import random


                def kick(sim, callback):
                    sim.schedule_in(random.random(), callback)
            """,
        },
    )
    findings = deep_findings(pkg, "REP112")
    assert len(findings) == 1, [f.format() for f in findings]
    assert findings[0].path.endswith("app/timer.py")


# ----------------------------------------------------------------------
# REP401: pure <-> C mirror drift
# ----------------------------------------------------------------------
MIRROR_ENGINE = """
    class Simulator:
        __slots__ = ("now", "rng")

        def run(self):
            return self.now

        def step(self):
            return self.rng
"""

MIRROR_C = """\
static PyGetSetDef csim_getsets[] = {
    {"now", (getter)g_now, NULL, NULL, NULL},
    {"rng", (getter)g_rng, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyMethodDef csim_methods[] = {
    {"run", (PyCFunction)c_run, METH_VARARGS, NULL},
    {"step", (PyCFunction)c_step, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL}
};
"""

MIRROR_MANIFEST = {
    "schema": "repro.lint.mirror/v1",
    "classes": {
        "Simulator": {
            "pure_module": "repro.sim.engine",
            "getset_table": "csim_getsets",
            "method_table": "csim_methods",
            "mirror_attrs": True,
            "delegated_attrs": [],
            "delegated_methods": [],
        }
    },
}


def mirror_tree(tmp_path, c_source=MIRROR_C, engine=MIRROR_ENGINE):
    return write_tree(
        tmp_path,
        {
            "src/repro/sim/engine.py": engine,
            "src/repro/_cext/_coremodule.c": c_source,
            "src/repro/_cext/mirror_manifest.json": json.dumps(
                MIRROR_MANIFEST
            ),
        },
    )


def test_rep401_clean_when_tables_match(tmp_path):
    pkg = mirror_tree(tmp_path)
    assert not deep_findings(pkg, "REP401")


def test_rep401_deleted_getset_fires(tmp_path):
    mutated = MIRROR_C.replace(
        '    {"rng", (getter)g_rng, NULL, NULL, NULL},\n', ""
    )
    assert mutated != MIRROR_C
    pkg = mirror_tree(tmp_path, c_source=mutated)
    findings = deep_findings(pkg, "REP401")
    assert len(findings) == 1, [f.format() for f in findings]
    finding = findings[0]
    # Attributed to the pure class, where the fix (or delegation) goes.
    assert finding.path.endswith("sim/engine.py")
    assert "'rng'" in finding.message


def test_rep401_stale_c_method_fires(tmp_path):
    mutated = MIRROR_C.replace(
        "    {NULL, NULL, 0, NULL}",
        '    {"ghost", (PyCFunction)c_ghost, METH_VARARGS, NULL},\n'
        "    {NULL, NULL, 0, NULL}",
    )
    pkg = mirror_tree(tmp_path, c_source=mutated)
    findings = deep_findings(pkg, "REP401")
    assert len(findings) == 1, [f.format() for f in findings]
    assert "'ghost'" in findings[0].message


def test_rep401_unmirrored_pure_method_fires(tmp_path):
    grown = MIRROR_ENGINE.replace(
        "        def step(self):\n            return self.rng\n",
        "        def step(self):\n            return self.rng\n\n"
        "        def drain(self):\n            return None\n",
    )
    pkg = mirror_tree(tmp_path, engine=grown)
    findings = deep_findings(pkg, "REP401")
    assert len(findings) == 1, [f.format() for f in findings]
    assert "'drain'" in findings[0].message


# ----------------------------------------------------------------------
# REP403: emitted record kinds/fields vs docs/OBSERVABILITY.md
# ----------------------------------------------------------------------
OBS_DOC = """\
# Observability

| `record` | Fields |
|---|---|
| `metric` | `kind`, `value` |
"""


def obs_tree(tmp_path, emit_body):
    return write_tree(
        tmp_path,
        {
            "docs/OBSERVABILITY.md": OBS_DOC,
            "src/repro/obs/emit.py": emit_body,
        },
    )


def test_rep403_clean_when_documented(tmp_path):
    pkg = obs_tree(
        tmp_path,
        """
        def emit(sink, value):
            sink.write({"record": "metric", "kind": "counter", "value": value})
        """,
    )
    assert not deep_findings(pkg, "REP403")


def test_rep403_undocumented_kind_fires(tmp_path):
    pkg = obs_tree(
        tmp_path,
        """
        def emit(sink):
            sink.write({"record": "mystery", "value": 1})
        """,
    )
    findings = deep_findings(pkg, "REP403")
    assert len(findings) == 1, [f.format() for f in findings]
    assert "'mystery'" in findings[0].message


def test_rep403_undocumented_field_fires(tmp_path):
    pkg = obs_tree(
        tmp_path,
        """
        def emit(sink, value):
            sink.write({"record": "metric", "kind": "c", "bogus": value})
        """,
    )
    findings = deep_findings(pkg, "REP403")
    assert len(findings) == 1, [f.format() for f in findings]
    assert "bogus" in findings[0].message


def test_rep403_out_of_scope_module_is_ignored(tmp_path):
    # Record-shaped dicts outside the exporting packages (a test helper,
    # an analysis consumer) are not schema emission sites.
    pkg = write_tree(
        tmp_path,
        {
            "docs/OBSERVABILITY.md": OBS_DOC,
            "src/repro/core/consumer.py": """
                def fake_record():
                    return {"record": "mystery", "value": 1}
            """,
        },
    )
    assert not deep_findings(pkg, "REP403")
