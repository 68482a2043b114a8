"""Span tracing from outside the simulator.

:class:`Tracer` wraps public entry points of each layer (functions,
methods, the ``CmpSystem`` constructor) with a span recorder before any
system is built, and restores the untraced objects on :meth:`uninstall`.
A span records its name, start, end, parent span and the id of the cell
it belongs to. Spans stay in memory (compact parallel arrays) and are
written out once, at the end (:meth:`write`).

A layer's self time is the time of its spans minus the time of their
child spans, so the self times of all spans sum to the duration of the
root spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, owner, attribute) of every wrapped entry point. An
#: owner of None means a module-level function: every loaded ``repro``
#: module that imported the same function object is patched too, since
#: callers look the name up in their own module.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("harness", "repro.harness.experiment", None, "run_benchmark"),
    ("harness", "repro.harness.experiment", None, "run_workload"),
    ("harness", "repro.harness.parallel", None, "run_units"),
    ("cmp", "repro.cmp.system", "CmpSystem", "__init__"),
    ("cmp", "repro.cmp.system", "CmpSystem", "run"),
    ("cmp", "repro.cmp.system", "CmpSystem", "resume"),
    ("sim", "repro.sim.kernel", "Simulator", "run"),
    ("noc", "repro.noc.router", "BaseNetwork", "send"),
    ("noc", "repro.noc.router", "BaseNetwork", "multicast"),
    ("noc", "repro.noc.smart", "SmartNetwork", "multicast"),
    ("noc", "repro.noc.router", "BaseNetwork", "tick"),
    ("coherence", "repro.coherence.context", "SystemContext", "send"),
    ("coherence", "repro.coherence.context", "SystemContext", "multicast"),
    # Message handlers and the core-side access are where coherence
    # does its work; without them that time would count as kernel time
    # (the kernel fires the delivery events that call the handlers).
    ("coherence", "repro.coherence.l1", "L1Controller", "access"),
    ("coherence", "repro.coherence.context", "SystemContext", "register"),
    ("cache", "repro.cache.array", "CacheArray", "lookup"),
    ("cache", "repro.cache.array", "CacheArray", "allocate"),
    ("cache", "repro.cache.array", "CacheArray", "invalidate"),
    ("traces", "repro.traces.synthetic", None, "generate_traces"),
    ("traces", "repro.traces.multiprogram", None, "build_workload"),
    ("service", "repro.service.client", "ServiceClient", "run_units"),
)

LAYERS = ("harness", "cmp", "sim", "noc", "coherence", "cache", "traces",
          "service")


class Tracer:
    """Records spans around the wrapped entry points (see module doc)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell_of = array("i")
        self.cell = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        #: entry points that could not be wrapped, with the reason
        self.unwrapped: Dict[str, str] = {}
        #: per cell: the kernel's (event sequence, cycle) after its last
        #: ``Simulator.run`` returned
        self.kernel: Dict[int, Tuple[int, int]] = {}

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def traced(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        stack = self._stack
        name_of, start, end = self.name_of, self.start, self.end
        parent, cell_of = self.parent, self.cell_of
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            cell_of.append(tracer.cell)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        return span

    # -- wrapping ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`."""
        import importlib

        for layer, modname, owner_name, attr in ENTRY_POINTS:
            owner_part = f"{owner_name}." if owner_name else ""
            label = f"{modname}.{owner_part}{attr}"
            name = f"{layer}.{owner_part.lower()}{attr}"
            mod = importlib.import_module(modname)
            if owner_name is None:
                fn = mod.__dict__.get(attr)
                if fn is None:
                    self.unwrapped[label] = "not found"
                    continue
                wrapped = self.traced(fn, name)
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and other.__dict__.get(attr) is fn):
                        self._patch(other, attr, wrapped)
                continue
            owner = getattr(mod, owner_name)
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.unwrapped[label] = "not defined on the class"
                continue
            if attr == "register":
                self._patch(owner, attr, self._registering(fn))
            elif owner_name == "Simulator":
                self._patch(owner, attr,
                            self.traced(self._counting(fn), name))
            else:
                self._patch(owner, attr, self.traced(fn, name))

    def _registering(self, register: Callable) -> Callable:
        """``SystemContext.register`` that wraps each message handler."""
        def reg(ctx, tile, unit, handler):
            return register(ctx, tile, unit, self.traced(
                handler, f"coherence.handle.{unit.name}"))
        return reg

    def _counting(self, run: Callable) -> Callable:
        """``Simulator.run`` that notes the kernel counters on return."""
        kernel = self.kernel

        def counted(sim, *args, **kwargs):
            try:
                return run(sim, *args, **kwargs)
            finally:
                kernel[self.cell] = (sim._seq, sim.cycle)
        return counted

    def uninstall(self) -> None:
        """Put every untraced object back, in reverse patch order."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        acc: Dict[int, List[float]] = {}
        for i in range(n):
            row = acc.setdefault(self.name_of[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end[i] - start[i]
            row[2] += end[i] - start[i] - child[i]
        return {self.names[nid]: (int(c), t, s)
                for nid, (c, t, s) in acc.items()}

    @staticmethod
    def layer_self_times(summary: Dict[str, Tuple[int, float, float]]
                         ) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in summary.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def write(self, path: str) -> None:
        """Write every span: a JSON header plus the raw span arrays."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".json", "w") as f:
            json.dump({"names": self.names, "spans": len(self),
                       "arrays": ["name", "start", "end", "parent", "cell"],
                       "dtypes": ["i", "d", "d", "i", "i"]}, f)
        with open(path + ".bin", "wb") as f:
            for arr in (self.name_of, self.start, self.end, self.parent,
                        self.cell_of):
                arr.tofile(f)
