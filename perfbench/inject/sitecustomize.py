"""Loaded at start-up by Python processes the benchmark spawns while a
slowdown is injected (its directory is put on their ``PYTHONPATH``)."""

import os
import sys

if os.environ.get("PERFBENCH_SLOWDOWN"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import slowdown

    slowdown.install(float(os.environ["PERFBENCH_SLOWDOWN"]))
