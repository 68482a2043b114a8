#!/usr/bin/env python3
"""Collect benchmark runs and compare two sets of them.

    python3 perfbench/compare.py collect --workload mesh256 --seeds 1-10 \\
        --out base.jsonl [--inject-slowdown 0.25]
    python3 perfbench/compare.py spread base.jsonl
    python3 perfbench/compare.py diff base.jsonl cand.jsonl

``collect`` runs ``run.py --trace 0`` once per workload and seed and
appends one JSON line per run: the result line, and the printed-only
metrics (host times as measured, ``loco_runtime_ratio``, ...).
``spread`` prints, per workload and end-to-end metric, the distance
between the first and third quartile of the runs as a share of their
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound, and exits 1 when any spread is over its bound. ``diff`` compares
medians: a metric whose candidate median is worse than the base median
by more than its bound is flagged, and so is a candidate run that
failed a correctness check. So is a metric on which the candidate is
worse than the base run of the same seed in at least nine tenths of at
least five seed pairs, with its median worse by more than the base
runs' own spread (the rule a claimed gain must meet, turned round): a
slowdown smaller than the bound shows on every seed. Runs of the same
workload and seed are also paired: the simulated ``loco_runtime_ratio``
and the ``failed`` count are exact for a seed, so any change in them is
flagged. (``attempted`` is not: it counts passes, and how many fit in a
run depends on the host's speed.) The exit code is 1 when anything is
flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

from run import HERE, ROOT, load_spec

#: fewest seed pairs for the paired rule of ``diff``
MIN_PAIRS = 5
#: a printed metric line: ``name = value unit``
PRINTED = re.compile(r"^([A-Za-z0-9][A-Za-z0-9_.-]*) = (\S+) \S+$")


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(args) -> int:
    spec = load_spec()
    for seed in parse_seeds(args.seeds):
        for workload in args.workload:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            if args.inject_slowdown:
                cmd += ["--inject-slowdown", str(args.inject_slowdown)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            printed = {m.group(1): float(m.group(2))
                       for m in map(PRINTED.match, lines[:-1]) if m}
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "inject": args.inject_slowdown,
                                    "result": result,
                                    "printed": printed}) + "\n")
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}"
                for k, v in result["metrics"].items()), flush=True)
    return 0


def load_records(path: str) -> List[Dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def load_runs(path: str) -> Dict[str, List[Dict]]:
    runs: Dict[str, List[Dict]] = {}
    for rec in load_records(path):
        runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def exact_of(record: Dict) -> Tuple[int, float]:
    """What a run reports exactly for its seed, whatever the host:
    (failed, loco_runtime_ratio)."""
    return (record["result"]["failed"],
            record["printed"]["loco_runtime_ratio"])


def seed_changes(base_path: str, cand_path: str) -> List[str]:
    """Workload/seed pairs whose exact values differ between the sets."""
    exact: Dict[Tuple[str, int], set] = {}
    for rec in load_records(base_path):
        exact.setdefault((rec["workload"], rec["seed"]), set()).add(
            exact_of(rec))
    changes = []
    for rec in load_records(cand_path):
        seen = exact.get((rec["workload"], rec["seed"]))
        value = exact_of(rec)
        if seen is not None and seen != {value}:
            changes.append(f"{rec['workload']} seed {rec['seed']}: "
                           "(failed, loco_runtime_ratio) "
                           f"{sorted(seen)} -> {value}")
    return changes


def values(results: List[Dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def iqr_share(vals: List[float]) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def spread(args) -> int:
    spec = load_spec()
    runs = load_runs(args.runs)
    worst = 0
    for workload, results in runs.items():
        for m in spec["end_to_end"]:
            vals = values(results, m["name"])
            s = iqr_share(vals)
            verdict = ("ok" if s < m["bound"] / 3 else
                       "over bound/3" if s <= m["bound"] else "OVER BOUND")
            if s > m["bound"]:
                worst = 1
            print(f"{workload:14s} {m['name']:20s} n={len(vals):2d} "
                  f"median={statistics.median(vals):.5g} "
                  f"spread={s:.3f} bound={m['bound']} {verdict}")
    return worst


def by_seed(path: str, workload: str, metric: str) -> Dict[int, float]:
    """One run's value of ``metric`` per seed of ``workload``."""
    return {rec["seed"]: rec["result"]["metrics"][metric]["value"]
            for rec in load_records(path) if rec["workload"] == workload
            and metric in rec["result"]["metrics"]}


def lost_pairs(base: Dict[int, float], cand: Dict[int, float],
               better: str) -> Tuple[int, int]:
    """(pairs the candidate lost, pairs) over the seeds both sets ran;
    ties count for neither side."""
    seeds = sorted(set(base) & set(cand))
    lost = sum((cand[s] > base[s]) if better == "lower" else
               (cand[s] < base[s]) for s in seeds)
    return lost, len(seeds)


def diff(args) -> int:
    spec = load_spec()
    base, cand = load_runs(args.base), load_runs(args.cand)
    flagged = 0
    for workload in sorted(set(base) & set(cand)):
        bad = [r for r in cand[workload] if not r["correct"] or r["failed"]]
        if bad:
            flagged += 1
            print(f"{workload:14s} FLAG: {len(bad)} candidate run(s) failed "
                  "a correctness check")
        for m in spec["end_to_end"]:
            base_vals = values(base[workload], m["name"])
            b = statistics.median(base_vals)
            c = statistics.median(values(cand[workload], m["name"]))
            worse = (c - b) / b if m["better"] == "lower" else (b - c) / b
            lost, pairs = lost_pairs(by_seed(args.base, workload, m["name"]),
                                     by_seed(args.cand, workload, m["name"]),
                                     m["better"])
            # over the bound, or worse on (nearly) every seed by more
            # than the base runs spread among themselves
            paired = (pairs >= MIN_PAIRS and lost >= 0.9 * pairs
                      and worse > iqr_share(base_vals))
            flag = worse > m["bound"] or paired
            flagged += flag
            print(f"{workload:14s} {m['name']:20s} base={b:.5g} cand={c:.5g} "
                  f"worse_by={worse:+.3f} bound={m['bound']} "
                  f"lost={lost}/{pairs}{'  FLAG' if flag else ''}")
    for change in seed_changes(args.base, args.cand):
        flagged += 1
        print(f"FLAG: same seed, different exact values: {change}")
    print(f"{flagged} flagged")
    return 1 if flagged else 0


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = cli.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", action="append", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    c.add_argument("--out", required=True)
    c.add_argument("--inject-slowdown", type=float, default=0.0)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("cand")
    args = cli.parse_args(argv)
    return {"collect": collect, "spread": spread, "diff": diff}[args.cmd](
        args)


if __name__ == "__main__":
    sys.exit(main())
