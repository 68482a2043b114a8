"""A deliberate slowdown of the simulation kernel, to show the
benchmark's comparison catches a slower simulator.

:func:`install` wraps ``Simulator.run`` (the kernel run loop) so that
each call busy-waits, after the loop returns, for ``fraction`` times the
host time the loop took: 0.25 makes the kernel loop take 1.25 times as
long. The loop calls every event handler, so this covers all simulation
work; trace generation, system builds and the harness are not slowed.
The wait is added once per call, not once per cycle, so the wrapper's
own cost does not add to the slowdown. Pool workers are forked and
inherit the wrapper; spawned fleet workers pick it up through
``inject/sitecustomize.py`` from :data:`ENV`.
"""

from __future__ import annotations

import functools
import os
import time

ENV = "PERFBENCH_SLOWDOWN"


def install(fraction: float) -> None:
    from repro.sim.kernel import Simulator

    if not fraction > 0.0:
        raise ValueError(f"slowdown fraction must be positive, got "
                         f"{fraction}")
    loop = Simulator.run
    clock = time.perf_counter

    @functools.wraps(loop)
    def slow_run(self, *args, **kwargs):
        t0 = clock()
        try:
            return loop(self, *args, **kwargs)
        finally:
            until = clock() + fraction * (clock() - t0)
            while clock() < until:
                pass

    Simulator.run = slow_run
    os.environ[ENV] = repr(fraction)
    here = os.path.dirname(os.path.abspath(__file__))
    inject = os.path.join(here, "inject")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = inject + (os.pathsep + path if path else "")
