"""The harness's one source of host time.

Everything ``bench`` reports is *host* time; simulated time only appears
as a workload size (``until=...``).  ``repro lint`` rule REP102 bans
wall-clock reads in simulation code, so the harness binds the timer once
here and nothing under ``src/`` ever imports this module.
"""

import time

#: Monotonic host seconds, comparable only within one process.
now = time.perf_counter  # lint: allow-wallclock(the harness measures host time by design; nothing under src/ imports this module)
