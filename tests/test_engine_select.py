"""Engine selection (:mod:`repro.core.engine_select`; docs/COMPILED.md).

The contract under test:

* precedence — explicit :func:`activate` argument > ``REPRO_ENGINE`` >
  ``auto``; unknown modes fail loudly at resolution time;
* ``auto`` silently falls back to the pure build, ``compiled`` raises
  an *actionable* :class:`EngineUnavailableError` (the message must
  carry the build command) instead of silently degrading;
* selection is late-bound per construction: :func:`use_engine` switches
  the classes new ``Simulator()`` calls produce and restores the prior
  selection — including the environment variable — on exit;
* pickles are engine-portable: an instance pickled under either build
  loads as an instance of whichever build is active at load time;
* choosing a build imports no hot-core module: the first construction
  installs it, in the process that chose it and in a forked worker.
"""

from __future__ import annotations

import json
import os
import pickle  # lint: allow-pickle(exercises the engine-portable pickle round-trip on purpose)

import subprocess
import sys

import pytest

from repro.core import engine_select
from repro.sim.engine import Simulator

needs_compiled = pytest.mark.skipif(
    not engine_select.compiled_available(),
    reason=f"compiled extension not built (`{engine_select.BUILD_HINT}`)",
)


# ----------------------------------------------------------------------
# Mode resolution and precedence
# ----------------------------------------------------------------------
def test_resolve_mode_defaults_to_auto(monkeypatch):
    monkeypatch.delenv(engine_select.ENV_VAR, raising=False)
    assert engine_select.resolve_mode() == "auto"


def test_resolve_mode_env_var(monkeypatch):
    monkeypatch.setenv(engine_select.ENV_VAR, "pure")
    assert engine_select.resolve_mode() == "pure"


def test_resolve_mode_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(engine_select.ENV_VAR, "pure")
    assert engine_select.resolve_mode("auto") == "auto"


@pytest.mark.parametrize("source", ["argument", "environment"])
def test_unknown_mode_fails_loudly(monkeypatch, source):
    if source == "argument":
        with pytest.raises(ValueError, match="unknown engine mode"):
            engine_select.resolve_mode("fast")
    else:
        monkeypatch.setenv(engine_select.ENV_VAR, "fast")
        with pytest.raises(ValueError, match=engine_select.ENV_VAR):
            engine_select.resolve_mode()


# ----------------------------------------------------------------------
# The `compiled` mode must never silently fall back
# ----------------------------------------------------------------------
def _pretend_extension_missing(monkeypatch):
    monkeypatch.setattr(engine_select, "_compiled_classes", None)
    monkeypatch.setattr(
        engine_select,
        "_compiled_import_error",
        "ModuleNotFoundError: No module named 'repro._cext._core'",
    )


def test_compiled_without_extension_is_an_actionable_error(monkeypatch):
    """Demanding the compiled build on a pure-only checkout must raise —
    not silently hand back the slow path — and the error must tell the
    user exactly how to build the extension."""
    _pretend_extension_missing(monkeypatch)
    with pytest.raises(engine_select.EngineUnavailableError) as excinfo:
        engine_select.activate("compiled")
    message = str(excinfo.value)
    assert engine_select.BUILD_HINT in message
    assert engine_select.EXTENSION_MODULE in message
    assert "pure" in message  # points at the fallback modes too


def test_auto_without_extension_falls_back_silently(monkeypatch):
    _pretend_extension_missing(monkeypatch)
    with engine_select.use_engine("auto") as info:
        assert info.name == "pure"
        assert info.fallback_reason is not None
        assert type(Simulator()) is Simulator


# ----------------------------------------------------------------------
# Late-bound construction and restoration
# ----------------------------------------------------------------------
def test_pure_mode_constructs_exactly_the_pure_class():
    with engine_select.use_engine("pure"):
        sim = Simulator()
    assert type(sim) is Simulator


def test_use_engine_restores_env(monkeypatch):
    monkeypatch.delenv(engine_select.ENV_VAR, raising=False)
    with engine_select.use_engine("pure"):
        assert os.environ[engine_select.ENV_VAR] == "pure"
    assert engine_select.ENV_VAR not in os.environ


@needs_compiled
def test_compiled_mode_constructs_a_compiled_subclass():
    with engine_select.use_engine("compiled") as info:
        sim = Simulator()
        assert info.name == "compiled"
        assert info.extension  # path of the loaded .so
    assert isinstance(sim, Simulator)
    assert type(sim) is not Simulator
    assert type(sim).__module__ == engine_select.EXTENSION_MODULE


@needs_compiled
def test_selection_is_per_construction():
    """Instances keep their build; only *new* constructions follow the
    active selection."""
    with engine_select.use_engine("pure"):
        pure_sim = Simulator()
        with engine_select.use_engine("compiled"):
            compiled_sim = Simulator()
        again = Simulator()
    assert type(pure_sim) is Simulator
    assert type(again) is Simulator
    assert type(compiled_sim) is not Simulator


# ----------------------------------------------------------------------
# Engine-portable pickling
# ----------------------------------------------------------------------
def _run_a_little(sim):
    # print is picklable by reference; the callback must survive the
    # round trip alongside the heap entry that carries it.
    sim.post(0.5, print, ("early",))
    sim.post(1.0, print, ("late",))
    sim.run(until=0.75)
    return sim


@needs_compiled
@pytest.mark.parametrize("src", ["pure", "compiled"])
@pytest.mark.parametrize("dst", ["pure", "compiled"])
def test_pickles_load_on_either_build(src, dst):
    with engine_select.use_engine(src):
        payload = pickle.dumps(_run_a_little(Simulator()))
    with engine_select.use_engine(dst):
        sim = pickle.loads(payload)
    if dst == "pure":
        assert type(sim) is Simulator
    else:
        assert type(sim).__module__ == engine_select.EXTENSION_MODULE
    assert sim.now == 0.75
    assert len(sim._heap) == 1  # the 1.0 s event survived the round trip
    sim.run(until=2.0)
    assert sim.now == 2.0
    # One event fired pre-pickle, the survivor fires post-load; the
    # counter accumulates across runs and must survive the round trip.
    assert sim.dispatched_events == 2


# ----------------------------------------------------------------------
# Deferred install (fresh interpreters: this one imported the engine)
# ----------------------------------------------------------------------
HOT_CORE = (
    "repro.sim.engine", "repro.net.link", "repro.net.node",
    engine_select.EXTENSION_MODULE,
)
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _fresh(code, cwd):
    """stdout lines of ``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    env.pop(engine_select.ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC_DIR, env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("mode", ["pure", "auto"])
def test_activation_imports_no_hot_core_module(mode, tmp_path):
    lines = _fresh(
        "import sys; from repro.core import engine_select; "
        f"engine_select.activate({mode!r}); "
        f"print([m for m in {HOT_CORE!r} if m in sys.modules])",
        tmp_path,
    )
    assert lines == ["[]"]


@needs_compiled
def test_the_first_construction_after_activation_is_compiled(tmp_path):
    ext = engine_select.EXTENSION_MODULE
    lines = _fresh(
        "import sys\n"
        "from repro.core import engine_select\n"
        "engine_select.activate('compiled')\n"
        f"assert not [m for m in {HOT_CORE!r} if m in sys.modules]\n"
        "from repro.net.network import Network\n"
        "from repro.sim.engine import Simulator\n"
        "net = Network(seed=1)\n"
        "net.add_nodes('a', 'b')\n"
        "net.add_duplex_link('a', 'b', bandwidth=1e6, delay=0.01)\n"
        "print(type(Simulator()).__module__, type(net.sim).__module__,\n"
        "      type(net.link('a', 'b')).__module__,\n"
        "      type(net.node('a')).__module__)\n"
        "engine_select.activate('pure')\n"
        "print(type(Simulator()).__module__,\n"
        "      type(Network(seed=1).sim).__module__)\n",
        tmp_path,
    )
    assert lines == [f"{ext} {ext} {ext} {ext}", "repro.sim.engine repro.sim.engine"]


@needs_compiled
def test_a_fig6_worker_installs_the_engine_the_parent_chose(tmp_path):
    """``--jobs 2 --engine compiled``: the parent never imports the
    engine; each forked worker imports it inside its first cell and
    must still build the compiled simulator."""
    argv = [
        "fig6", "--protocols", "tcp-pr", "--epsilons", "0", "500",
        "--duration", "1", "--jobs", "2", "--engine", "compiled",
        "--no-cache",
    ]
    _fresh(
        "import json, os, sys\n"
        "from repro.cli import main\n"
        "from repro.experiments import fig6_multipath\n"
        "cell = fig6_multipath.run_fig6_cell\n"
        "def spy(**kwargs):\n"
        "    first = 'repro.sim.engine' not in sys.modules\n"
        "    value = cell(**kwargs)\n"
        "    from repro.sim.engine import Simulator\n"
        "    path = f'worker-{os.getpid()}.json'\n"
        "    if not os.path.exists(path):\n"
        "        with open(path, 'w') as handle:\n"
        "            json.dump([first, type(Simulator()).__module__], handle)\n"
        "    return value\n"
        "fig6_multipath.run_fig6_cell = spy\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'repro.sim.engine' not in sys.modules\n",
        tmp_path,
    )
    seen = [json.loads(path.read_text()) for path in tmp_path.glob("worker-*.json")]
    assert seen
    assert all(row == [True, engine_select.EXTENSION_MODULE] for row in seen)
