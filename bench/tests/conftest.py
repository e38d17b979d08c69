"""``python -m pytest bench/tests -q`` from the repository root.

Not collected by tier-1 (``pytest.ini`` sets ``testpaths = tests``).
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def pytest_addoption(parser):
    # The root pytest.ini sets `timeout`; claim the key when the
    # pytest-timeout plugin is absent so it does not warn here.
    if importlib.util.find_spec("pytest_timeout") is None:
        parser.addini("timeout", "per-test ceiling (unused here)", default="0")
