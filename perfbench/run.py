#!/usr/bin/env python3
"""Benchmark runner: builds the C++ iteration binary, runs one workload for a
fixed time as a series of fresh processes, checks every output and prints
medians as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload mno_census --seed 2019 --seconds 40 --trace 0
    python3 perfbench/run.py --workload trace_roundtrip --trace 1   # per-layer metrics
    python3 perfbench/run.py --smoke        # all workloads, tiny fleets, seconds
    python3 perfbench/run.py --selftest     # C++ self-tests, helper tests, smoke

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 untraced and traced iterations alternate, and the metrics are the
per-layer ones (medians over the traced iterations) plus the tracing
overhead. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "wtr_perfbench"
SELFTEST_BINARY = BUILD_DIR / "wtr_perfbench_selftest"

WORKLOADS = ("mno_census", "trace_roundtrip", "storm_congestion")
DEFAULT_SEEDS = {"mno_census": 2019, "trace_roundtrip": 2019, "storm_congestion": 7331}
# Table of references.json each workload is checked against. The two MNO
# workloads build the same scenario, so threads=2 with snapshots must
# reproduce the threads=1 outputs.
REFERENCE_TABLE = {"mno_census": "mno", "trace_roundtrip": "mno", "storm_congestion": "storm"}
# Fewest fresh processes a run measures, whatever --seconds says: a median
# of fewer is one sample. Traced runs count untraced+traced pairs.
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
ITERATION_TIMEOUT_S = 150


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """Set-up problem: the run cannot produce a result at all."""


def build(targets):
    """Configure (once) and build the benchmark package out of tree."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        command = ["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs]
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError(f"build of {target} failed")


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def load_references():
    with open(BENCH_DIR / "references.json", encoding="utf-8") as f:
        return json.load(f)


def run_iteration(workload, seed, traced, smoke, work_dir, spans_path):
    """One fresh process; returns its parsed result (problems in 'problems')."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--work-dir", str(work_dir)]
    if traced:
        command += ["--traced", "--spans", str(spans_path)]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"iteration timed out after {ITERATION_TIMEOUT_S} s"]}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problems": [f"iteration exited {proc.returncode} without a result"]}
    result["problems"] = list(result.get("failures", []))
    if proc.returncode != 0 and not result["problems"]:
        result["problems"].append(f"iteration exited {proc.returncode}")
    return result


def reference_for(references, workload, seed, smoke):
    table = references[REFERENCE_TABLE[workload]]["smoke" if smoke else "seeds"]
    return table.get(str(seed))


def check_facts(result, expected, label):
    """Append a problem per fact that differs from `expected`."""
    facts = result.get("facts", {})
    for name, want in expected.items():
        got = facts.get(name)
        if got != want:
            result["problems"].append(f"{name}: got {got!r}, {label} {want!r}")


def measure(workload, seed, seconds, traced, smoke, references):
    """Run iterations until `seconds` are used; return (plain, traced) lists."""
    work_dir = BUILD_DIR / "work" / f"{workload}-{seed}-{os.getpid()}"
    spans_dir = BUILD_DIR / "traces"
    work_dir.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload}-seed{seed}{'-smoke' if smoke else ''}.json"
    reference = reference_for(references, workload, seed, smoke)
    plain, traced_runs = [], []
    first_facts = None
    minimum = MIN_TRACED_PAIRS if traced else MIN_ITERATIONS
    start = time.monotonic()
    try:
        while True:
            kinds = (False, True) if traced else (False,)
            for kind in kinds:
                result = run_iteration(workload, seed, kind, smoke, work_dir, spans_path)
                if "facts" in result:
                    # Every iteration of a seed, traced or not, must produce
                    # the same outputs; the first is also held to the
                    # stored reference, when there is one.
                    if first_facts is None:
                        first_facts = result["facts"]
                        if reference is not None:
                            check_facts(result, reference, "reference")
                    else:
                        check_facts(result, first_facts, "first iteration")
                (traced_runs if kind else plain).append(result)
            rounds = len(plain)
            elapsed = time.monotonic() - start
            if smoke or (rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return plain, traced_runs, reference is not None, first_facts


def end_to_end_metrics(plain):
    return {
        "setup_s": statistics.median([r["setup_s"] for r in plain]),
        "records_per_s": statistics.median([r["records"] / r["run_s"] for r in plain]),
        "analysis_s": statistics.median([r["analysis_s"] for r in plain]),
        "peak_rss_bytes": statistics.median([r["peak_rss_bytes"] for r in plain]),
    }


def per_layer_metrics(plain, traced_runs):
    names = traced_runs[0]["layers"].keys()
    values = {name: statistics.median([r["layers"][name] for r in traced_runs])
              for name in names}
    untraced_rate = statistics.median([r["records"] / r["run_s"] for r in plain])
    traced_rate = statistics.median([r["records"] / r["run_s"] for r in traced_runs])
    values["obs.trace_overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    return values


def run_workload(workload, seed, seconds, trace, smoke, spec, references):
    """Measure one workload; returns (result dict, problems list)."""
    plain, traced_runs, has_reference, facts = measure(
        workload, seed, seconds, trace, smoke, references)
    everything = plain + traced_runs
    failed = [r for r in everything if r["problems"]]
    problems = [p for r in failed for p in r["problems"]]
    metrics = {}
    if not failed:
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        values = per_layer_metrics(plain, traced_runs) if trace else end_to_end_metrics(plain)
        for metric in wanted:
            if metric["name"] not in values:
                problems.append(f"metric {metric['name']} was not measured")
                continue
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
        extra = set(values) - {m["name"] for m in wanted}
        if extra:
            problems.append(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    summary = (f"{workload} seed={seed} iterations={len(plain)}+{len(traced_runs)} traced "
               f"reference={'checked' if has_reference else 'none (in-run checks only)'}")
    if facts is not None:
        summary += f" census_digest={facts.get('census_digest')} records=" + ",".join(
            str(facts.get(f"records.{family}")) for family in ("signaling", "cdr", "xdr", "dwell"))
    print(summary, flush=True)
    result = {"correct": not problems, "attempted": len(everything),
              "failed": max(len(failed), 1 if problems else 0), "metrics": metrics}
    return result, problems


def selftest(spec, references):
    build(["wtr_perfbench", "wtr_perfbench_selftest"])
    ok = subprocess.run([str(SELFTEST_BINARY)], cwd=BUILD_DIR).returncode == 0
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_benchstats"],
                           cwd=BENCH_DIR)
    ok = ok and tests.returncode == 0
    return smoke(spec, references) and ok


def smoke(spec, references):
    build(["wtr_perfbench"])
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, problems = run_workload(workload, DEFAULT_SEEDS[workload], 0, trace,
                                            True, spec, references)
            for problem in problems:
                log(f"{workload}: {problem}")
            ok = ok and result["correct"]
    print("smoke: " + ("PASS" if ok else "FAIL"), flush=True)
    return ok


def main():
    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as e:
        log(f"error: cannot read BENCHMARK.json: {e}")
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleets, every workload, plain and traced")
    parser.add_argument("--selftest", action="store_true",
                        help="C++ self-tests, helper unit tests and the smoke pass")
    args = parser.parse_args()

    try:
        references = load_references()
        if args.selftest:
            return 0 if selftest(spec, references) else 1
        if args.smoke:
            return 0 if smoke(spec, references) else 1
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed is not None and args.seed < 0:
            parser.error("--seed must be non-negative")
        seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
        build(["wtr_perfbench"])
        result, problems = run_workload(args.workload, seed, args.seconds, bool(args.trace),
                                        False, spec, references)
    except (BenchError, OSError, json.JSONDecodeError) as e:
        log(f"error: {e}")
        return 2
    for problem in problems:
        log(f"check failed: {problem}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
