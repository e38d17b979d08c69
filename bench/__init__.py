"""The repository benchmark: eight workloads, measured from outside.

``bench`` never edits ``src/``; it times calls into public functions,
installs class-level timing wrappers before any object is built, and
reads public counters.  ``BENCHMARK.json`` at the repository root is
the contract (workloads, end-to-end metrics with bounds, per-layer
metrics); ``bench/README.md`` explains every number.

Entry points (run from the repository root)::

    python3 -m bench --workload pr_bulk --seed 11 --seconds 10 --trace 0
    python3 -m bench run   [--seed 11] [--rounds 5]
    python3 -m bench trace [--seed 11]
    python3 -m bench noise [--seed 11] [--rounds 5]
"""

from pathlib import Path

#: The checkout root (the directory that holds ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: The package under test.  ``bench`` puts this on ``sys.path`` /
#: ``PYTHONPATH`` itself, so no environment set-up is needed.
SRC = ROOT / "src"
#: Everything a run leaves behind (ignored by git).
OUT = ROOT / "bench" / "out"
