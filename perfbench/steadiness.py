#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed, in two sets, and report
for every end-to-end metric the spread within each set (distance between the
first and third quartile of the per-seed values, as a share of their median)
and the drift of set 2's median from set 1's, signed so that positive means
worse. Both are compared with the metric's bound in BENCHMARK.json; the
evidence table in README.md was made with this.

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --workloads trace_roundtrip --seeds 1-5

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace 0`,
with run_seconds from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchstats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Two sets of the same code: the drift between them is what a second batch
# of runs of an unchanged commit would show.
SETS = 2


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, seconds):
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds for a spread")
    workloads = args.workloads.split(",")
    # Set by set, each set running every workload over every seed, so the
    # drift between sets spans the whole time a set takes.
    record = {workload: [] for workload in workloads}
    for set_index in range(SETS):
        for workload in workloads:
            values = []
            for seed in seeds:
                values.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"{workload} set {set_index + 1} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in values[-1].items()),
                      file=sys.stderr, flush=True)
            record[workload].append(values)

    worst = 0.0
    for workload, sets in record.items():
        print(f"\n{workload} ({len(seeds)} seeds x {SETS} sets)")
        print(f"  {'metric':<16} {'bound':>6} {'spread set 1, 2':>16} {'drift':>7} "
              f"{'median set 1 -> set 2':>26}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = [[v[name] for v in values] for values in sets]
            spreads = [benchstats.relative_iqr(s) for s in series]
            medians = [statistics.median(s) for s in series]
            drift = benchstats.worsening(medians[0], medians[1], metric["better"])
            worst = max(worst, max(spreads) / metric["bound"], drift / metric["bound"])
            print(f"  {name:<16} {metric['bound']:>6.2f} "
                  f"{spreads[0]:7.3f} {spreads[1]:7.3f}  {drift:+7.3f} "
                  f"{medians[0]:12.6g} -> {medians[1]:<12.6g}")
    print(f"\nlargest spread or drift as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
