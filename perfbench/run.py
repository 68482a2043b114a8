#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figure_matrix --seed 1 \\
        --seconds 33 --trace 0

``--trace 0`` times the workload through its own backend (a 2-process
pool, a 2-worker socket fleet, or in-process) for ``--seconds`` and
reports the end-to-end metrics of ``BENCHMARK.json``, with host times
scaled to reference host speed (``refclock.py``). ``--trace 1``
runs the same cells once untraced and once in-process under the span
tracer, and reports the per-layer metrics. Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit.

``--inject-slowdown F`` makes the kernel run loop take ``1 + F`` times
as long (also in pool and fleet workers; see ``slowdown.py``). It exists
to show that the comparison in ``compare.py`` catches a slower
simulator.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from refclock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: pool processes and fleet workers (the host has 2 vCPUs)
JOBS = 2
#: minimum timed passes per run, whatever ``--seconds`` says
MIN_PASSES = 3
#: minimum set-ups per run; a run sets up before every pass, and then
#: again until it has this many
SETUP_REPS = 9
#: fresh-interpreter imports timed per set-up (their median counts)
IMPORT_REPS = 1
#: units of the printed metrics that BENCHMARK.json does not list
PRINTED_UNITS = {"host_setup_s": "s", "host_wall_s": "s",
                 "host_slowdown": "ratio", "loco_runtime_ratio": "ratio",
                 "paper_gap": "ratio", "failed_frac": "fraction",
                 "passes": "count"}


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Host seconds for a fresh interpreter to import the simulator
    (the median of ``IMPORT_REPS`` interpreters)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import repro.harness, repro.service"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


def _trace_key(cell) -> Tuple:
    """What a cell's trace set depends on (one set per key)."""
    from repro.harness.units import WorkloadUnit

    if isinstance(cell, WorkloadUnit):
        return ("mp", cell.workload, cell.cores, cell.scale,
                cell.full_system, cell.seed)
    exp = cell.exp
    return ("bench", exp.benchmark, exp.cores, exp.scale, exp.full_system,
            exp.seed)


def generate_traces_for(cells) -> Tuple[float, int, Dict[Any, Any]]:
    """Generate every distinct trace set the cells replay, the way the
    harness does. Returns (seconds, trace events, (traces, barrier
    populations) by trace key)."""
    from repro.harness.units import WorkloadUnit
    from repro.traces.benchmarks import get_benchmark
    from repro.traces.multiprogram import build_workload
    from repro.traces.synthetic import generate_traces

    t0 = time.perf_counter()
    sets: Dict[Any, Any] = {}
    for cell in cells:
        key = _trace_key(cell)
        if key in sets:
            continue
        if isinstance(cell, WorkloadUnit):
            sets[key] = build_workload(cell.workload, num_cores=cell.cores,
                                       scale=cell.scale, seed=cell.seed,
                                       full_system=cell.full_system)
        else:
            exp = cell.exp
            spec = get_benchmark(exp.benchmark, scale=exp.scale,
                                 full_system=exp.full_system)
            sets[key] = (generate_traces(spec, exp.cores, seed=exp.seed),
                         None)
    seconds = time.perf_counter() - t0
    events = sum(len(t) for traces, _ in sets.values() for t in traces)
    return seconds, events, sets


def build_first_system(cells, sets) -> float:
    """Host seconds of the ``CmpSystem`` constructor for the first cell."""
    from repro.cmp.system import CmpSystem

    cell = cells[0]
    traces, pops = sets[_trace_key(cell)]
    # a WorkloadUnit describes its machine itself, a SweepUnit in its exp
    machine = getattr(cell, "exp", cell)
    t0 = time.perf_counter()
    CmpSystem(machine.system_config(), traces,
              full_system=machine.full_system, barrier_populations=pops,
              warmup_fraction=machine.warmup_fraction)
    return time.perf_counter() - t0


def start_pool() -> float:
    """Host seconds to start a ``JOBS``-process pool and hear from it."""
    from concurrent.futures import ProcessPoolExecutor

    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        for future in [pool.submit(os.getpid) for _ in range(JOBS)]:
            future.result()
        seconds = time.perf_counter() - t0
    return seconds


class Fleet:
    """An in-process coordinator with ``JOBS`` spawned worker processes."""

    def __init__(self) -> None:
        from repro.service import Coordinator
        from repro.service.worker import spawn_worker_process

        self.coordinator = Coordinator()
        self.address = self.coordinator.start()
        self.procs = []
        try:
            self.procs = [spawn_worker_process(self.address,
                                               name=f"perfbench-{i}",
                                               capture=True)
                          for i in range(JOBS)]
            deadline = time.monotonic() + 120.0
            while len(self.status()["workers"]) < JOBS:
                if time.monotonic() > deadline:
                    raise RuntimeError("fleet workers did not register")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def status(self) -> Dict[str, Any]:
        from repro.service import ServiceClient

        with ServiceClient(self.address) as client:
            return client.status()

    def close(self) -> None:
        self.coordinator.stop()
        for proc in self.procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def set_up(workload, cells, keep_fleet: bool = False) -> Dict[str, Any]:
    """One set-up: imports, trace generation, the first system build and
    the backend start. A started fleet is closed again unless
    ``keep_fleet``, in which case ``fleet`` holds it."""
    from repro.harness import experiment

    experiment.clear_trace_cache()
    out: Dict[str, Any] = {"import_s": import_seconds()}
    out["traces_s"], out["trace_events"], sets = generate_traces_for(cells)
    out["build_s"] = build_first_system(cells, sets)
    out["backend_s"] = 0.0
    if workload.backend == "pool":
        out["backend_s"] = start_pool()
    elif workload.backend == "fleet":
        t0 = time.perf_counter()
        fleet = Fleet()
        out["backend_s"] = time.perf_counter() - t0
        if keep_fleet:
            out["fleet"] = fleet
        else:
            fleet.close()
    out["setup_s"] = (out["import_s"] + out["traces_s"] + out["build_s"]
                      + out["backend_s"])
    return out


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

class RowClock:
    """Stamps each row a ``ServiceClient`` streams back (host time, and
    the reference clock's sample count then)."""

    def __init__(self, ref: Optional[RefClock] = None) -> None:
        self.ref = ref

    def __enter__(self) -> "RowClock":
        from repro.service.client import ServiceClient

        self.times: List[float] = []
        self.marks: List[int] = []
        self._owner = ServiceClient
        self._orig = ServiceClient.__dict__["run_units"]
        orig, times, marks, ref = (self._orig, self.times, self.marks,
                                   self.ref)

        def run_units(client, units, *, on_row=None, **kwargs):
            def stamped(idx, value):
                times.append(time.perf_counter())
                marks.append(ref.mark() if ref is not None else 0)
                if on_row is not None:
                    on_row(idx, value)
            return orig(client, units, on_row=stamped, **kwargs)

        ServiceClient.run_units = run_units
        return self

    def __exit__(self, *exc) -> None:
        self._owner.run_units = self._orig


def run_inprocess(cells) -> Tuple[List[Dict[str, Any]], List[Any],
                                  List[float]]:
    """Run every cell here, one after another, through the unit's own
    entry point with the full result kept. Returns rows, results and
    per-cell host seconds."""
    from repro.harness.units import metric_of
    from workloads import METRICS

    rows, results, times = [], [], []
    for cell in cells:
        t0 = time.perf_counter()
        result = dataclasses.replace(cell, metric=None).run()
        times.append(time.perf_counter() - t0)
        rows.append({m: metric_of(result, m) for m in METRICS})
        results.append(result)
    return rows, results, times


def run_pass(workload, cells, fleet: Optional[Fleet] = None,
             ref: Optional[RefClock] = None) -> Dict[str, Any]:
    """One timed pass of the workload through its backend. With a
    reference clock, ``first_row_mark`` is its sample count when the
    first row came back."""
    from repro.harness import experiment
    from repro.harness.parallel import run_units

    experiment.clear_trace_cache()
    out: Dict[str, Any] = {}
    t0 = time.perf_counter()
    if workload.backend == "pool":
        rows = run_units(cells, jobs=JOBS)
        out["wall_s"] = time.perf_counter() - t0
        # run_units hands back every row at once
        out["first_row_s"] = out["wall_s"]
        out["first_row_mark"] = ref.mark() if ref is not None else 0
    elif workload.backend == "fleet":
        with RowClock(ref) as clock:
            rows = run_units(cells, service=fleet.address)
        out["wall_s"] = time.perf_counter() - t0
        out["first_row_s"] = clock.times[0] - t0
        out["first_row_mark"] = clock.marks[0]
        out["row_gaps"] = [b - a for a, b in zip(clock.times,
                                                 clock.times[1:])]
    else:
        rows, _, times = run_inprocess(cells[:1])
        out["first_row_mark"] = ref.mark() if ref is not None else 0
        more_rows, _, more_times = run_inprocess(cells[1:])
        out["wall_s"] = time.perf_counter() - t0
        rows += more_rows
        times += more_times
        out["first_row_s"] = times[0]
        out["cell_s"] = times
    out["rows"] = rows
    return out


# ---------------------------------------------------------------------------
# checks and simulated metrics
# ---------------------------------------------------------------------------

def loco_ratio(cells, rows) -> float:
    """Geomean over benchmarks of LOCO_CC_VMS_IVR / SHARED runtime."""
    from workloads import ratio_pairs

    pairs = ratio_pairs(cells)
    return math.exp(sum(math.log(rows[i]["runtime"] / rows[j]["runtime"])
                        for i, j in pairs) / len(pairs))


class Checks:
    """Counts attempted and failed cells and says why cells failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def rows(self, cells, rows, reference=None) -> None:
        """Check one pass's rows: every cell finished and reported work,
        and each row equals the reference pass's row, if one is given."""
        from workloads import cell_label

        self.attempted += len(cells)
        for i, row in enumerate(rows):
            if (row.get("finished") is not True or not row.get("runtime")
                    or not row.get("instructions")
                    or (reference is not None and row != reference[i])):
                self.fail(1, f"cell {cell_label(cells[i])}: row {row!r} "
                             "unfinished or differs from the reference")

    def rerun(self, cells, rows, seed: int) -> None:
        """Re-run one cell here and require the backend's row exactly."""
        from workloads import cell_label

        i = seed % len(cells)
        self.attempted += 1
        try:
            value = cells[i].run()
        except Exception:
            traceback.print_exc()
            self.fail(1, f"in-process re-run of {cell_label(cells[i])} "
                         "raised")
            return
        if value != rows[i]:
            self.fail(1, f"cell {cell_label(cells[i])}: backend row "
                         f"{rows[i]!r} != in-process row {value!r}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any reaped
    child (``getrusage`` keeps only the maximum over children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, checks: Checks
            ) -> Dict[str, float]:
    """End-to-end metrics of one run, plus the printed-only ones."""
    from workloads import PAPER_RATIO

    cells = workload.cells(seed)
    setups: List[Dict[str, Any]] = []
    passes: List[Dict[str, Any]] = []
    lap_s: List[float] = []
    t_measure = time.perf_counter()
    with RefClock() as clock:
        while True:
            # set-ups are spread over the run, so their median does not
            # hang on one moment of the host
            t_lap = time.perf_counter()
            mark = clock.mark()
            setups.append(set_up(workload, cells, keep_fleet=True))
            setups[-1]["scale"] = clock.scale(mark)
            fleet = setups[-1].pop("fleet", None)
            mark = clock.mark()
            try:
                p = run_pass(workload, cells, fleet, clock)
            except Exception:
                traceback.print_exc()
                checks.attempted += len(cells)
                checks.fail(len(cells), "a pass raised")
                break
            finally:
                if fleet is not None:
                    fleet.close()
            p["scale"] = clock.scale(mark)
            p["first_row_scale"] = clock.scale(mark, p["first_row_mark"])
            checks.rows(cells, p["rows"],
                        passes[0]["rows"] if passes else None)
            passes.append(p)
            lap_s.append(time.perf_counter() - t_lap)
            elapsed = time.perf_counter() - t_measure
            # what the set-ups still owed after the next lap would take
            owed = max(SETUP_REPS - len(setups) - 1, 0) * median(
                [s["setup_s"] for s in setups])
            if (len(passes) >= MIN_PASSES
                    and elapsed + median(lap_s) + owed > seconds):
                break
        if not passes:
            return {}
        while len(setups) < SETUP_REPS:
            mark = clock.mark()
            setups.append(set_up(workload, cells))
            setups[-1]["scale"] = clock.scale(mark)
    rows = passes[0]["rows"]
    if workload.backend != "inprocess":
        checks.rerun(cells, rows, seed)
    instructions = sum(r["instructions"] for r in rows)
    ratio = loco_ratio(cells, rows)
    wall = [p["wall_s"] * p["scale"] for p in passes]
    return {
        "setup_s": median([s["setup_s"] * s["scale"] for s in setups]),
        "wall_s": median(wall),
        "sim_kips": median([instructions / w / 1000.0 for w in wall]),
        "peak_rss_mb": peak_rss_mb(),
        "first_row_s": median([p["first_row_s"] * p["first_row_scale"]
                               for p in passes]),
        # printed only: host times as measured, the host's speed, and
        # simulated values that are exact for a seed
        "host_setup_s": median([s["setup_s"] for s in setups]),
        "host_wall_s": median([p["wall_s"] for p in passes]),
        "host_slowdown": median([1.0 / p["scale"] for p in passes]),
        "loco_runtime_ratio": ratio,
        "paper_gap": abs(ratio - PAPER_RATIO[workload.paper_ref]),
        "failed_frac": checks.failed / max(checks.attempted, 1),
        "passes": float(len(passes)),
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

#: names the fabrics give their statistics (``<name>.flit_hops``, ...)
NOC_NAMES = ("smart", "conventional", "fbfly")


def _totals(results) -> Dict[str, float]:
    """Every statistic summed over runs; a fabric's ``<name>.x`` also
    counts under ``noc.x``, and latency means become sums."""
    out: Dict[str, float] = {}
    for r in results:
        stats = r.stats.to_dict()
        for key, value in stats.items():
            head, _, tail = key.partition(".")
            if head in NOC_NAMES:
                if tail == "latency.mean":
                    tail = "latency.sum"
                    value *= stats[f"{head}.latency.count"]
                key = f"noc.{tail}"
            out[key] = out.get(key, 0) + value
    return out


def trace_layers(workload, seed: int, checks: Checks, out_dir: str
                 ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics, and the layers or entry points left unmeasured
    with the reason."""
    from repro.harness.parallel import run_units
    from tracing import LAYERS, Tracer

    cells = workload.cells(seed)
    fleet_backend = workload.backend == "fleet"
    setups = [set_up(workload, cells) for _ in range(SETUP_REPS)]
    fleet = Fleet() if fleet_backend else None
    m: Dict[str, float] = {
        "fleet.units_completed": 0.0, "fleet.requeues": 0.0,
        "fleet.duplicates": 0.0, "fleet.heartbeats_seen": 0.0,
        "fleet.row_gap_p50": 0.0, "fleet.overhead_s": 0.0,
    }
    # 1. untraced, through the workload's own backend
    try:
        backend = run_pass(workload, cells, fleet)
        if fleet is not None:
            status = fleet.status()["stats"]
            for key in ("units_completed", "requeues", "duplicates",
                        "heartbeats_seen"):
                m[f"fleet.{key}"] = float(status[key])
    finally:
        if fleet is not None:
            fleet.close()
    checks.rows(cells, backend["rows"])
    if fleet_backend:
        m["fleet.row_gap_p50"] = median(backend["row_gaps"])
        t0 = time.perf_counter()
        pool_rows = run_units(cells, jobs=JOBS)
        m["fleet.overhead_s"] = backend["wall_s"] - (time.perf_counter()
                                                     - t0)
        checks.rows(cells, pool_rows, backend["rows"])
    # 2. untraced in-process: the reference for the tracing overhead
    if workload.backend == "inprocess":
        plain = backend
    else:
        plain = run_pass(dataclasses.replace(workload, backend="inprocess"),
                         cells)
        checks.rows(cells, plain["rows"], backend["rows"])
    # 3. traced in-process
    from repro.harness import experiment

    experiment.clear_trace_cache()
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        rows, results = [], []
        for i, cell in enumerate(cells):
            tracer.cell = i
            r, res, _ = run_inprocess([cell])
            rows += r
            results += res
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    checks.rows(cells, rows, backend["rows"])
    tracer.write(os.path.join(out_dir, f"spans-{workload.name}"))

    summary = tracer.summary()
    layer = tracer.layer_self_times(summary)
    total_self = sum(layer.values())
    share = {k: (v / total_self if total_self else 0.0)
             for k, v in layer.items()}
    events = sum(seq for seq, _ in tracer.kernel.values())
    cycles = sum(cyc for _, cyc in tracer.kernel.values())
    t = _totals(results)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hops, losses = t.get("noc.flit_hops", 0), t.get("noc.arb_losses", 0)
    l1h, l1m = t.get("l1_hits", 0), t.get("l1_misses", 0)
    cell_s = plain["cell_s"]
    jobs = 1 if workload.backend == "inprocess" else JOBS
    m.update({
        "sim.events": float(events),
        "sim.cycles": float(cycles),
        "sim.events_per_cycle": ratio(events, cycles),
        "sim.self_s": layer["sim"],
        "sim.share": share["sim"],
        "sim.host_us_per_event": ratio(plain["wall_s"] * 1e6, events),
        "noc.flit_hops_per_cycle": ratio(hops, cycles),
        "noc.arb_loss_rate": ratio(losses, hops),
        "noc.latency_mean": ratio(t.get("noc.latency.sum", 0),
                                  t.get("noc.latency.count", 0)),
        "noc.self_s": layer["noc"],
        "noc.share": share["noc"],
        "noc.host_ns_per_flit_hop": ratio(layer["noc"] * 1e9, hops),
        "coh.retry_rate": ratio(t.get("tok_retries", 0),
                                t.get("tok_broadcasts", 0)),
        "coh.l2_hit_latency_mean": statistics.fmean(
            r.l2_hit_latency for r in results),
        "coh.search_delay_mean": statistics.fmean(
            r.search_delay for r in results),
        "coh.self_s": layer["coherence"],
        "coh.share": share["coherence"],
        "cache.l1_hit_ratio": ratio(l1h, l1h + l1m),
        "cache.self_s": layer["cache"],
        "cmp.self_s": layer["cmp"],
        "traces.gen_s": median([s["traces_s"] for s in setups]),
        "traces.events": float(setups[0]["trace_events"]),
        "harness.cells": float(len(cells)),
        "harness.build_s": summary.get("cmp.cmpsystem.__init__",
                                       (0, 0.0, 0.0))[1],
        "harness.cell_s_p50": median(cell_s),
        "harness.cell_s_max": max(cell_s),
        "harness.pool_eff": sum(cell_s) / (jobs * backend["wall_s"]),
        "trace.spans": float(len(tracer)),
        "trace.self_sum_s": total_self,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain["wall_s"],
    })
    for name, stat in (
            ("noc.injected", "noc.injected"),
            ("noc.flit_hops", "noc.flit_hops"),
            ("noc.arb_losses", "noc.arb_losses"),
            ("noc.premature_stops", "noc.premature_stops"),
            ("noc.mcast_injected", "noc.mcast_injected"),
            ("coh.l2_accesses", "l2_accesses"),
            ("coh.l2_misses", "l2_misses"),
            ("coh.l2_upgrades", "l2_upgrades"),
            ("coh.tok_broadcasts", "tok_broadcasts"),
            ("coh.tok_retries", "tok_retries"),
            ("coh.offchip_fetches", "offchip_fetches"),
            ("cache.l1_hits", "l1_hits"),
            ("cache.l1_misses", "l1_misses"),
            ("cmp.instructions", "instructions"),
            ("cmp.mem_refs", "mem_refs"),
            ("cmp.lock_spins", "lock_spins"),
            ("cmp.spin_probes", "spin_probes")):
        m[name] = float(t.get(stat, 0))
    unmeasured = dict(tracer.unwrapped)
    for lay in LAYERS:
        if not any(name.startswith(lay + ".") for name in summary):
            unmeasured[lay] = "no span recorded"
    if "service" in unmeasured:
        unmeasured["service"] = ("no span: pool and fleet workers keep "
                                 "spans in their own processes, so the "
                                 "traced pass runs in-process; fleet.* "
                                 "come from status() and the client's "
                                 "row clock")
    return m, unmeasured


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def result_of(metrics: Dict[str, float], listed: List[Dict[str, Any]],
              checks: Checks) -> Dict[str, Any]:
    """The result line: every listed metric with its unit."""
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        checks.fail(0, f"metrics not measured: {missing}")
    return {
        "correct": checks.failed == 0 and not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in listed if m["name"] in metrics},
    }


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import DEFAULT_SEED, PAPER_RATIO, WORKLOADS

    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--workload", required=True)
    cli.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cli.add_argument("--seconds", type=float, default=None)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cli.add_argument("--inject-slowdown", type=float, default=0.0,
                     metavar="FRACTION")
    args = cli.parse_args(argv)
    spec = load_spec()
    if args.workload not in WORKLOADS:
        cli.error(f"unknown workload {args.workload!r}; "
                  f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else spec[
        "run_seconds"]
    if args.inject_slowdown:
        import slowdown
        slowdown.install(args.inject_slowdown)
    checks = Checks()
    unmeasured: Dict[str, str] = {}
    if args.trace:
        metrics, unmeasured = trace_layers(workload, args.seed, checks,
                                           OUT_DIR)
        listed = spec["per_layer"]
    else:
        metrics = measure(workload, args.seed, seconds, checks)
        listed = spec["end_to_end"]
    result = result_of(metrics, listed, checks)
    units = {m["name"]: m["unit"] for m in listed}
    print(f"# workload {workload.name}  seed {args.seed}  backend "
          f"{workload.backend}  scale {workload.scale}  trace {args.trace}")
    if not args.trace:
        ref = workload.paper_ref
        print(f"# paper reference {ref} = {PAPER_RATIO[ref]} (a published "
              "figure, not a hardware measurement; the model is otherwise "
              "unvalidated); paper_gap = |loco_runtime_ratio - reference|")
    for name, value in metrics.items():
        print(f"{name} = {value:.10g} "
              f"{units.get(name) or PRINTED_UNITS.get(name, '-')}")
    for what, why in unmeasured.items():
        print(f"unmeasured {what}: {why}")
    for why in checks.problems:
        print(f"FAILED: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator source under {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        sys.exit(2)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print("perfbench: BENCHMARK.json missing at the checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
