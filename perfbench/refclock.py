"""Host speed, measured alongside the workload.

The benchmark runs on small shared virtual machines whose CPU speed
drifts by tens of percent, over seconds and over minutes (a fixed
pure-Python loop timed back to back ran 1.5 times slower for stretches
of several seconds; its CPU time moved with its wall time, so the host
was slower, not descheduling it). Host times taken minutes apart are
then not comparable. :class:`RefClock` measures that speed at the same
moments as the workload: a ``SIGALRM`` handler in the benchmark process
runs :meth:`RefClock.chunk`, a fixed piece of pure-Python work that
calls no simulator code, every :data:`PERIOD_S` seconds of wall time and
records the thread CPU time it took. Thread CPU time leaves out time the
handler spent waiting for the GIL or for a vCPU, so a chunk measures
only how fast the host ran it.

A host time ``t`` measured over a window is reported scaled to
reference speed: ``t * (REF_S / median(chunk times in the window)) **
ELASTICITY``, i.e. about the seconds it would have taken on a host that
runs a chunk in :data:`REF_S`. A change to the simulator does not change
the chunk, so it moves the scaled time as much as the host time.

Pool and fleet workers are separate processes; the chunks run in the
benchmark process, which is idle while they work, and so sample both
vCPUs. Forked pool workers inherit the handler but not the timer, and
spawned fleet workers neither, so only the benchmark process runs
chunks. They cost about 3% of one vCPU.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import List, Optional

#: wall seconds between two reference chunks
PERIOD_S = 0.05
#: thread CPU seconds one reference chunk takes at reference speed:
#: about its median while a simulation runs in the same process, on the
#: 2-vCPU x86-64 virtual machine (2 MB L2 per vCPU, CPython 3) the
#: benchmark was defined on, so scaled seconds read close to host
#: seconds there
REF_S = 0.002
#: how much faster than the chunk's time the simulator's time grows when
#: the host slows: the slope of log pass time over log chunk time was
#: 1.08-1.27 across the four workloads' runs and 1.15 across passes of
#: ``mesh256`` (a chunk over 16 MB of objects gave 1.7, over 64 MB 2.0)
ELASTICITY = 1.2


class _Node:
    __slots__ = ("key", "value", "link")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.link = None


class RefClock:
    """Samples the reference chunk every :data:`PERIOD_S` while entered.
    ``mark()`` starts a window; ``scale(mark)`` is the factor that turns
    host seconds measured since then into reference seconds."""

    def __init__(self) -> None:
        rng = random.Random(20140301)
        # about 2 MB of objects touched at random: larger than a core's
        # L2 cache, so a chunk runs at the speed of the shared cache and
        # memory, which is where neighbours on the host slow a
        # simulation down
        self._table = {i: _Node(i, 3 * i) for i in range(1 << 14)}
        self._keys = [rng.randrange(1 << 14) for _ in range(6000)]
        # copied before each chunk (untimed) to push the table out of
        # the private caches, so a chunk starts from the same state
        # whatever ran before it
        self._flush_src = bytearray(4 << 20)
        self._flush_dst = bytearray(4 << 20)
        self.samples: List[float] = []
        self._busy = False
        self._previous = None

    def chunk(self) -> float:
        """Run the reference chunk once; return its thread CPU seconds.
        It allocates no container, so it never sets off a garbage
        collection of someone else's objects."""
        self._flush_dst[:] = self._flush_src
        t0 = time.thread_time()
        table, acc, prev = self._table, 0, None
        for key in self._keys:
            node = table[key]
            acc += node.value & 7
            node.link = prev
            prev = node
        return time.thread_time() - t0

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(self.chunk())
        finally:
            self._busy = False

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int, end: Optional[int] = None) -> float:
        """``REF_S`` over the median chunk time from ``mark`` to ``end``
        (a later mark; now if None); a window too short to hold a chunk
        takes one now."""
        window = self.samples[mark:end] or [self.chunk()]
        return (REF_S / statistics.median(window)) ** ELASTICITY
