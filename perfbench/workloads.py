"""The benchmark's workloads: which cells each one runs, and why.

A cell is one :class:`~repro.harness.units.SweepUnit` or
:class:`~repro.harness.units.WorkloadUnit` reducing to :data:`METRICS`.
The workload seed reaches the simulator only as the unit's ``seed``.
Scales are sized so one pass of a workload takes 2-7 s on a 2-vCPU host,
so that a run of ``run_seconds`` takes the median of 3-8 passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.harness.experiment import ExperimentConfig
from repro.harness.units import SweepUnit, WorkloadUnit
from repro.params import NocKind, Organization

Cell = Union[SweepUnit, WorkloadUnit]

#: seed used when ``--seed`` is not given
DEFAULT_SEED = 1
#: held-out seed: never run while the benchmark or a change under test
#: is tuned; a claimed gain must also hold on it
HELDOUT_SEED = 104729

#: what every cell reduces to (the figure metric tuple, plus what the
#: benchmark needs to check and rate a cell)
METRICS = ("runtime", "mpki", "l2_hit_latency", "search_delay",
           "offchip_accesses", "instructions", "finished")

#: a cell that has not finished by then fails; the largest cell here
#: simulates about 35k cycles
MAX_CYCLES = 400_000

#: published LOCO_CC_VMS_IVR / SHARED runtime ratios (paper figures, not
#: a hardware measurement; the model is otherwise unvalidated)
PAPER_RATIO = {
    "fig11_64c": 0.861,
    "fig11_256c": 0.821,
    "fig16_fullsys": 0.555,
}

SHARED = Organization.SHARED
IVR = Organization.LOCO_CC_VMS_IVR
ORGS = tuple(Organization)


@dataclass(frozen=True)
class Workload:
    name: str
    #: one-line reason, also the ``why`` of BENCHMARK.json
    why: str
    #: "pool" (run_units jobs=2), "fleet" (run_units service=...) or
    #: "inprocess" (run_benchmark, concurrency 1)
    backend: str
    paper_ref: str
    scale: float

    def cells(self, seed: int) -> List[Cell]:
        return _CELLS[self.name](seed, self.scale)


def _sweep(bench: str, org: Organization, seed: int, scale: float,
           **kw) -> SweepUnit:
    return SweepUnit(ExperimentConfig(bench, org, seed=seed, scale=scale,
                                      **kw),
                     max_cycles=MAX_CYCLES, metric=METRICS)


def _mp(name: str, org: Organization, seed: int, scale: float) -> WorkloadUnit:
    return WorkloadUnit(name, org, seed=seed, scale=scale,
                        max_cycles=MAX_CYCLES, metric=METRICS)


def _water_and_w1(seed: int, scale: float) -> List[Cell]:
    return ([_sweep("water_spatial", o, seed, scale) for o in ORGS]
            + [_mp("W1", o, seed, scale)
               for o in (SHARED, Organization.LOCO_CC, IVR)])


def _figure_matrix(seed: int, scale: float) -> List[Cell]:
    barnes = [_sweep("barnes", o, seed, scale) for o in ORGS]
    barnes += [_sweep("barnes", IVR, seed, scale, noc=noc)
               for noc in (NocKind.CONVENTIONAL,
                           NocKind.FLATTENED_BUTTERFLY)]
    barnes += [_sweep("barnes", IVR, seed, scale, cluster=shape)
               for shape in ((4, 1), (8, 1))]
    return barnes + _water_and_w1(seed, scale)


def _mesh256(seed: int, scale: float) -> List[Cell]:
    return [_sweep("barnes", o, seed, scale, cores=256)
            for o in (SHARED, IVR)]


def _fullsys64(seed: int, scale: float) -> List[Cell]:
    return [_sweep(b, o, seed, scale, full_system=True)
            for b in ("barnes", "water_spatial") for o in (SHARED, IVR)]


_CELLS = {
    "figure_matrix": _figure_matrix,
    "mesh256": _mesh256,
    "fullsys64": _fullsys64,
    "fleet_matrix": _water_and_w1,
}

WORKLOADS = {w.name: w for w in (
    Workload("figure_matrix",
             "Fig 6-15 cells as users regenerate them: 17 64-core cells "
             "on a 2-process pool; stresses harness fan-out, noc, "
             "coherence; bypasses service",
             "pool", "fig11_64c", 0.01),
    Workload("mesh256",
             "256-core barnes, SHARED vs IVR, in-process: dense traffic, "
             "noc dominates host time; harness and service bypassed",
             "inprocess", "fig11_256c", 0.015),
    Workload("fullsys64",
             "64-core full-system barnes and water_spatial with barriers "
             "and locks: writes, upgrades, lock spins, sparse noc, highest "
             "sim kernel share; harness and service bypassed",
             "inprocess", "fig16_fullsys", 0.05),
    Workload("fleet_matrix",
             "water_spatial 5 organizations plus W1 3 cells on a 2-worker "
             "socket fleet: the only workload through service",
             "fleet", "fig11_64c", 0.04),
)}


def cell_label(cell: Cell) -> str:
    if isinstance(cell, WorkloadUnit):
        return f"{cell.workload}/{cell.organization.value}"
    exp = cell.exp
    return (f"{exp.benchmark}/{exp.organization.value}/{exp.noc.value}/"
            f"{exp.cluster[0]}x{exp.cluster[1]}/{exp.cores}c"
            f"{'/fs' if exp.full_system else ''}")


def ratio_pairs(cells: List[Cell]) -> List[Tuple[int, int]]:
    """Index pairs (LOCO_CC_VMS_IVR cell, SHARED cell) of the same
    benchmark on the default fabric and cluster shape."""
    found = {}
    for i, cell in enumerate(cells):
        if isinstance(cell, WorkloadUnit):
            key, org = (cell.workload, cell.cores), cell.organization
        else:
            exp = cell.exp
            if exp.noc is not NocKind.SMART or exp.cluster != (4, 4):
                continue
            key, org = (exp.benchmark, exp.cores), exp.organization
        found[(key, org)] = i
    return [(found[(key, IVR)], i) for (key, org), i in found.items()
            if org is SHARED and (key, IVR) in found]
