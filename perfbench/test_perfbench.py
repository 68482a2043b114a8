"""Tests of the benchmark itself: its metric list, its result line and
its span tracer. The workloads run here at a tiny scale through the
same code as a real run."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = 0.004


def spec():
    return run.load_spec()


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], scale=TINY)


@pytest.fixture
def one_pass(monkeypatch):
    """One set-up and one pass per run: the same code, in less time."""
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "IMPORT_REPS", 1)


def test_benchmark_json_grammar():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    names = ([w["name"] for w in s["workloads"]]
             + [m["name"] for m in s["end_to_end"] + s["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])
    assert {w["name"] for w in s["workloads"]} == set(WORKLOADS)
    for w in s["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert 1 <= s["run_seconds"] <= 60


def test_metric_grammar_rejects_bad_names():
    for bad in ("", "_lead", "a b", "a/b", "x" * 65, "é"):
        assert not NAME.match(bad)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_end_to_end_metric_reported_with_unit(name, one_pass):
    checks = run.Checks()
    metrics = run.measure(tiny(name), seed=3, seconds=0, checks=checks)
    result = run.result_of(metrics, spec()["end_to_end"], checks)
    assert result["correct"], checks.problems
    assert result["attempted"] >= 1 and result["failed"] == 0
    for m in spec()["end_to_end"]:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert entry["value"] > 0, m["name"]
    json.dumps(result)


@pytest.mark.parametrize("name", ["fullsys64", "fleet_matrix"])
def test_every_layer_metric_reported_and_self_times_sum_to_wall(
        name, tmp_path, one_pass):
    checks = run.Checks()
    metrics, unmeasured = run.trace_layers(tiny(name), seed=3,
                                           checks=checks,
                                           out_dir=str(tmp_path))
    result = run.result_of(metrics, spec()["per_layer"], checks)
    assert result["correct"], checks.problems
    for m in spec()["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(unmeasured) <= {"service"}
    wall, self_sum = metrics["trace.wall_s"], metrics["trace.self_sum_s"]
    assert abs(wall - self_sum) <= max(metrics["trace.overhead_s"],
                                       0.01 * wall)
    assert metrics["sim.events"] > 0 and metrics["noc.flit_hops"] > 0
    if name == "fleet_matrix":
        assert metrics["fleet.units_completed"] == metrics["harness.cells"]
    assert (tmp_path / f"spans-{name}.bin").stat().st_size > 0


def test_refclock_samples_and_restores():
    import signal
    import statistics
    import time

    import refclock

    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        mark = clock.mark()
        t_end = time.perf_counter() + 8 * refclock.PERIOD_S
        while time.perf_counter() < t_end:
            pass
        window = clock.samples[mark:]
        scale = clock.scale(mark)
    assert len(window) >= 3 and all(t > 0 for t in window)
    assert scale == pytest.approx((refclock.REF_S
                                   / statistics.median(window))
                                  ** refclock.ELASTICITY)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # an empty window still gives a scale, from a chunk taken on the spot
    assert clock.scale(len(clock.samples)) > 0


def test_tracer_self_times_and_restore():
    from repro.cmp.system import CmpSystem
    from repro.harness import experiment

    before = (CmpSystem.__dict__["__init__"],
              experiment.__dict__["run_benchmark"])
    tracer = Tracer()
    tracer.install()
    try:
        assert CmpSystem.__dict__["__init__"] is not before[0]
        outer = tracer.traced(lambda: inner() + inner(), "harness.outer")
        inner = tracer.traced(lambda: sum(range(10000)), "noc.inner")
        outer()
    finally:
        tracer.uninstall()
    assert (CmpSystem.__dict__["__init__"],
            experiment.__dict__["run_benchmark"]) == before
    summary = tracer.summary()
    assert {k: v[0] for k, v in summary.items()} == {"harness.outer": 1,
                                                    "noc.inner": 2}
    assert sum(v[2] for v in summary.values()) == pytest.approx(
        tracer.root_time())
    assert summary["harness.outer"][1] == pytest.approx(tracer.root_time())
    layers = tracer.layer_self_times(summary)
    assert set(layers) == set(LAYERS)
    assert layers["noc"] > 0 and layers["harness"] >= 0


def _write_runs(path, runs):
    with open(path, "w") as f:
        for seed, setup, ratio in runs:
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in spec()["end_to_end"]}
            metrics["setup_s"]["value"] = setup
            f.write(json.dumps({"workload": "mesh256", "seed": seed,
                                "result": {"correct": True, "attempted": 2,
                                           "failed": 0,
                                           "metrics": metrics},
                                "printed": {"loco_runtime_ratio": ratio}})
                    + "\n")


def test_compare_flags_setup_spread_and_same_seed_changes(tmp_path,
                                                          capsys):
    import compare

    steady = tmp_path / "steady.jsonl"
    _write_runs(steady, [(s, 1.0, 1.0 + s / 100) for s in range(1, 6)])
    assert compare.main(["spread", str(steady)]) == 0
    assert compare.main(["diff", str(steady), str(steady)]) == 0
    # setup_s has no exemption from its bound
    noisy = tmp_path / "noisy.jsonl"
    _write_runs(noisy, [(s, 1.0 + s / 4, 1.0 + s / 100)
                        for s in range(1, 6)])
    assert compare.main(["spread", str(noisy)]) == 1
    # a simulated value that moves for one seed is flagged, even when
    # the median over seeds stays within the bound
    moved = tmp_path / "moved.jsonl"
    _write_runs(moved, [(s, 1.0, 1.0 + s / 100 + (s == 3) * 0.05)
                        for s in range(1, 6)])
    capsys.readouterr()
    assert compare.main(["diff", str(steady), str(moved)]) == 1
    assert "mesh256 seed 3" in capsys.readouterr().out
