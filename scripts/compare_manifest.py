#!/usr/bin/env python3
"""Compare two wtr-run-manifest JSON files for performance regressions.

Usage:
    scripts/compare_manifest.py BASELINE.json CANDIDATE.json \
        [--max-regress 0.25] [--noise-floor 0.05]

Compares per-phase wall times and the records_per_sec headline between a
checked-in baseline manifest and a freshly produced candidate. Exits 1 when
any phase above the noise floor slowed down by more than --max-regress
(default 25%), or when records_per_sec dropped by more than the same factor.
Phases below the noise floor (default 0.05 s in the baseline) are reported
but never gate: their wall time is dominated by scheduler jitter. No other
result key is read.

Counter-type sanity is also checked: a schema mismatch or a missing phases
section is an error, because it means the manifest writer changed shape and
the baseline must be refreshed (scripts/check.sh --rebaseline).
"""

import argparse
import json
import sys

SCHEMA = "wtr-run-manifest/1"


def load_manifest(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"compare_manifest: cannot read {path}: {exc}")
    if data.get("schema") != SCHEMA:
        sys.exit(
            f"compare_manifest: {path} has schema {data.get('schema')!r}, "
            f"expected {SCHEMA!r} (refresh the baseline?)"
        )
    if "phases" not in data:
        sys.exit(f"compare_manifest: {path} has no phases section")
    return data


def phase_map(manifest):
    return {p["name"]: p for p in manifest.get("phases", [])}


def fmt_delta(ratio):
    return f"{(ratio - 1.0) * 100.0:+7.1f}%"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.25,
        help="fail when a gated metric regresses by more than this fraction",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=0.05,
        help="baseline phases shorter than this many seconds never gate",
    )
    args = parser.parse_args()

    base = load_manifest(args.baseline)
    cand = load_manifest(args.candidate)

    base_phases = phase_map(base)
    cand_phases = phase_map(cand)

    failures = []
    rows = []

    for name, bp in base_phases.items():
        cp = cand_phases.get(name)
        if cp is None:
            rows.append((name, bp["wall_s"], None, "MISSING", True))
            failures.append(f"phase {name!r} missing from candidate")
            continue
        base_s, cand_s = bp["wall_s"], cp["wall_s"]
        gated = base_s >= args.noise_floor
        ratio = (cand_s / base_s) if base_s > 0 else 1.0
        bad = gated and ratio > 1.0 + args.max_regress
        rows.append((name, base_s, cand_s, fmt_delta(ratio), gated))
        if bad:
            failures.append(
                f"phase {name!r} regressed {fmt_delta(ratio).strip()} "
                f"({base_s:.3f}s -> {cand_s:.3f}s)"
            )
    for name in cand_phases:
        if name not in base_phases:
            rows.append((name, None, cand_phases[name]["wall_s"], "NEW", False))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'phase':<{width}}  {'base_s':>9}  {'cand_s':>9}  {'delta':>9}  gate")
    for name, base_s, cand_s, delta, gated in rows:
        bs = f"{base_s:9.3f}" if base_s is not None else "        -"
        cs = f"{cand_s:9.3f}" if cand_s is not None else "        -"
        print(f"{name:<{width}}  {bs}  {cs}  {delta:>9}  {'yes' if gated else 'no'}")

    base_results = base.get("results", {})
    cand_results = cand.get("results", {})
    base_threads = base_results.get("engine_threads", 1)
    cand_threads = cand_results.get("engine_threads", 1)
    if base_threads != cand_threads:
        print(
            f"\nnote: baseline ran at engine_threads={base_threads}, candidate at "
            f"engine_threads={cand_threads} (ignored: output is thread-invariant, "
            "only wall times move)"
        )

    base_rps = base_results.get("records_per_sec")
    cand_rps = cand_results.get("records_per_sec")
    if isinstance(base_rps, (int, float)) and isinstance(cand_rps, (int, float)):
        if base_rps > 0:
            ratio = cand_rps / base_rps
            print(
                f"\nrecords_per_sec: {base_rps:,.0f} -> {cand_rps:,.0f} "
                f"({fmt_delta(ratio).strip()})"
            )
            if ratio < 1.0 - args.max_regress:
                failures.append(
                    f"records_per_sec dropped {fmt_delta(ratio).strip()} "
                    f"({base_rps:,.0f} -> {cand_rps:,.0f})"
                )

    if failures:
        print("\ncompare_manifest: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "  (intentional? refresh with scripts/check.sh --rebaseline)",
            file=sys.stderr,
        )
        return 1
    print("\ncompare_manifest: OK (no phase regressed beyond the gate)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
