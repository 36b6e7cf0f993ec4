#!/usr/bin/env bash
# Four gates:
#
#  1. Sanitizer gate — configure a separate ASan+UBSan build tree (UBSan
#     includes float-cast-overflow, so a NaN reaching a float->int bin cast
#     is a hard failure, not a silent garbage bucket), build everything, and
#     run the full test suite under the sanitizers. The plain `build/` tree
#     stays untouched. The checkpoint crash-recovery suite (SIGKILL
#     injection against wtr_ckpt_harness + snapshot corruption rejection +
#     the event-queue differential fuzz + binary-trace corruption/bit-flip
#     tests) then re-runs as its own serial lane so kill timing isn't
#     skewed by parallel load.
#  2. Thread-sanitizer gate — a second sanitizer tree (TSan cannot be
#     combined with ASan) building the sharded-engine determinism suite, the
#     per-shard record log's stress suite, the APN intern table's suite, the
#     binary trace suite and the golden scenario suite and running them
#     under TSan: the shard loops, the merge that drains their logs and the
#     relays that feed every sink after the first run on real threads there,
#     and so do the binary trace reader's decode workers and the caller that
#     delivers their blocks in file order, so any data
#     race in the parallel engine — on the world tables every shard reads
#     (per-country operator index, the route table of roaming paths and
#     steering weights), or on the process-wide APN intern table whose ids
#     cross the shard->merge log and that decode workers fill — or in the
#     replay pipeline's slot handoff fails the gate. The storm lane
#     rides this tree: the closed-loop congestion suite (shard-private
#     ledgers merging at engine barriers) runs under TSan too, then the
#     ASan tree drives kill injection through an overload window
#     (KillInjectionStorm*) as its own serial lane.
#  3. Perfbench lane — build the end-to-end benchmark package
#     (perfbench/) against this tree's src/ and run its self-tests, so a
#     src/ API change that breaks it fails here, not at benchmark time.
#  4. Perf gate — build bench_p1_pipeline_perf in the plain `build/` tree
#     (no sanitizers; timings must be real), run its instrumented pipeline
#     (--manifest-only), drop BENCH_p1.json in the repo root, and fail on a
#     >25% phase-timer or records/sec regression against the checked-in
#     baseline (bench/baselines/BENCH_p1_baseline.json). The baseline is
#     always recorded at threads=1 (see EXPERIMENTS.md): --rebaseline never
#     sets WTR_BENCH_THREADS, so thread-count experiments cannot skew the
#     gate.
#
# Usage: scripts/check.sh [--rebaseline] [build-dir]   (default: build-asan)
#   --rebaseline  refresh the checked-in perf baseline from this machine's
#                 run instead of gating against it (commit the result).

set -euo pipefail

cd "$(dirname "$0")/.."

rebaseline=0
if [[ "${1:-}" == "--rebaseline" ]]; then
  rebaseline=1
  shift
fi
build_dir="${1:-build-asan}"

cmake -B "$build_dir" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
cmake --build "$build_dir" -j "$(nproc)"

# halt_on_error so CI fails loudly on the first UB report.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=0"

ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
echo "check.sh: all tests passed under ASan/UBSan"

# --- Crash-recovery gate (kill injection under ASan) -----------------------
# Re-run the checkpoint/restore suite as its own named lane: it SIGKILLs the
# sanitized wtr_ckpt_harness child at randomized instants and asserts the
# resumed output set is byte-identical to an uninterrupted run, then checks
# torn/bit-flipped snapshots are rejected loudly. The binary-trace
# corruption suite rides along: truncations, bit flips, dangling dictionary
# indices, and oversized block lengths must all surface as BinaryTraceError,
# never as a sanitizer report. The CRC-32 suite reruns beside them, since
# every snapshot and block rejection above rests on it. Serial on purpose —
# kill timing is wall-clock sensitive and must not share cores with other
# tests.
ctest --test-dir "$build_dir" --output-on-failure -R 'CheckpointRecovery|EventQueueProp|BinaryTrace|Crc32'
echo "check.sh: crash-recovery gate passed (kill injection + queue fuzz + trace corruption + CRC-32 under ASan)"

# --- TSan gate (separate tree: TSan and ASan cannot share a build) ---------
tsan_dir="build-tsan"
cmake -B "$tsan_dir" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$tsan_dir" -j "$(nproc)" --target test_parallel_engine test_congestion \
  test_scenario_determinism test_record_buffer test_apn test_bintrace

# The sharded engine: shards, the merge, and relayed sinks (two or three
# sinks per run, one of them throwing mid-run in one test).
TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/tests/test_parallel_engine"
# The per-shard record log on its own: a producer thread streaming 200k
# wakes against a consumer that replays them meanwhile and stalls now and
# then, so the bound, the blocking waits and chunk reuse all run under TSan;
# the consumer reads the texts of APN ids the producer's records carry.
TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/tests/test_record_buffer"
# The APN intern table: four threads interning overlapping text sets (one
# lock for inserts, none for reading an id's text).
TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/tests/test_apn"
# The binary trace reader: workers decode blocks ahead into a ring of slots
# while the calling thread delivers them in order, through clean replays,
# failures at a given block and a sink that throws mid-stream.
TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/tests/test_bintrace"
# Golden scenario bytes (threads=1 and threads=4 pin the same value) with
# shard threads reading the shared per-country index and route table.
TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/tests/test_scenario_determinism"
echo "check.sh: sharded engine and trace replay race-free under TSan (parallel engine + record log + APN table + binary trace reader + golden scenarios)"

# --- Storm lane -------------------------------------------------------------
# The congestion model's shard-private attempt ledgers merge on the engine's
# merge thread at window barriers; run the whole congestion suite (including
# its threads=1-vs-N byte-identity and resume-through-storm tests) on real
# threads under TSan, then kill-inject through an actual overload window in
# the ASan tree — serial, same wall-clock-sensitivity argument as above.
TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/tests/test_congestion"
ctest --test-dir "$build_dir" --output-on-failure -R 'CheckpointRecovery.KillInjectionStorm'
echo "check.sh: storm lane passed (congestion suite under TSan + kill injection mid-storm)"

# --- Trace lane -------------------------------------------------------------
# The flight recorder writes per-shard span rings from real shard threads;
# run its suite (ring wrap, trace-on/off byte-identity, concurrent phase
# timers) under TSan, then drive a short traced storm through the ASan
# harness and validate the Chrome trace-event export + heartbeat with the
# Python checker. Finally, prove the supervisor's hang detection tells a
# hung child (stale heartbeat -> SIGKILL + restart) from a slow one (fresh
# heartbeats -> left alone) using stub children.
cmake --build "$tsan_dir" -j "$(nproc)" --target test_trace
TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/tests/test_trace"
echo "check.sh: flight recorder + phase timers race-free under TSan"

trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT

mkdir -p "$trace_tmp/storm"
"$build_dir/tests/wtr_ckpt_harness" --out "$trace_tmp/storm" --scenario storm \
  --devices 400 --ckpt-hours 24 --threads 4 \
  --trace "$trace_tmp/storm/trace.json" \
  --heartbeat "$trace_tmp/storm/heartbeat.json" --heartbeat-interval 0
python3 scripts/validate_trace.py "$trace_tmp/storm/trace.json" \
  --min-shards 4 --require-span shard_window --require-span merge \
  --require-span ckpt_write --heartbeat "$trace_tmp/storm/heartbeat.json"
echo "check.sh: traced storm run exports Perfetto-loadable JSON + live heartbeat"

# Hung child: beats once, then stalls forever on attempt 1 in a sleep it
# started; attempt 2 (after the supervisor SIGKILLs it) exits clean. The
# supervisor must detect the stale heartbeat, kill the child's whole process
# group (the sleep included), restart without backoff, and exit 0.
cat > "$trace_tmp/hung_child.sh" <<'EOF'
#!/usr/bin/env bash
out=""; heartbeat=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out) out="$2"; shift 2 ;;
    --heartbeat) heartbeat="$2"; shift 2 ;;
    *) shift ;;
  esac
done
if [[ -f "$out/attempted" ]]; then exit 0; fi
touch "$out/attempted"
echo '{"phase":"run"}' > "$heartbeat"
sleep 600 &
echo $! > "$out/sleep.pid"
wait
EOF
chmod +x "$trace_tmp/hung_child.sh"
if ! WTR_SUPERVISE_HANG_TIMEOUT_S=2 scripts/run_supervised.sh \
    "$trace_tmp/hung_child.sh" "$trace_tmp/hung" 2> "$trace_tmp/hung.log"; then
  echo "check.sh: FAIL: supervisor did not recover the hung child" >&2
  cat "$trace_tmp/hung.log" >&2
  exit 1
fi
if ! grep -q "killing hung child" "$trace_tmp/hung.log"; then
  echo "check.sh: FAIL: supervisor exited 0 without detecting the hang" >&2
  cat "$trace_tmp/hung.log" >&2
  exit 1
fi
# A killed process nobody reaps stays a zombie (state Z): that one is gone.
hung_sleep=$(cat "$trace_tmp/hung/sleep.pid")
hung_state=$(ps -o stat= -p "$hung_sleep" | tr -d ' ' || true)
if [[ -n "$hung_state" && "$hung_state" != Z* ]]; then
  echo "check.sh: FAIL: the hung child's sleep (PID $hung_sleep) outlived the supervisor" >&2
  kill -9 "$hung_sleep" 2>/dev/null
  exit 1
fi

# Slow child: keeps beating every second for longer than the hang timeout,
# then exits clean. The supervisor must leave it alone (no kill, 0 restarts).
cat > "$trace_tmp/slow_child.sh" <<'EOF'
#!/usr/bin/env bash
heartbeat=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --heartbeat) heartbeat="$2"; shift 2 ;;
    *) shift ;;
  esac
done
for _ in 1 2 3 4; do
  echo '{"phase":"run"}' > "$heartbeat"
  sleep 1
done
exit 0
EOF
chmod +x "$trace_tmp/slow_child.sh"
if ! WTR_SUPERVISE_HANG_TIMEOUT_S=2 scripts/run_supervised.sh \
    "$trace_tmp/slow_child.sh" "$trace_tmp/slow" 2> "$trace_tmp/slow.log"; then
  echo "check.sh: FAIL: supervisor failed on a merely-slow child" >&2
  cat "$trace_tmp/slow.log" >&2
  exit 1
fi
if grep -q "killing hung child" "$trace_tmp/slow.log"; then
  echo "check.sh: FAIL: supervisor killed a child with fresh heartbeats" >&2
  cat "$trace_tmp/slow.log" >&2
  exit 1
fi
echo "check.sh: trace lane passed (TSan suite + validated export + hang-vs-slow supervision)"

# --- Scale-smoke lane (100k agents through the wheel + arena) ---------------
# A short-horizon 100k-device MNO run is big enough to cycle the timing
# wheel through hundreds of buckets and leave part of the staggered fleet
# dormant in the agent arena, yet small enough for sanitizer builds. With
# --faults the harness feeds a ResilienceReport beside records.bin, so at
# threads=4 the report is a relayed sink: a relay thread replays the merged
# stream into it while the merge writes records.bin, and the report counts
# into the shared metrics registry through the counter handles it holds —
# under ASan and TSan both. The records/metrics/probe/resilience dumps must
# be byte-identical between threads=1 and threads=4 within each tree (never
# compared across trees — different instrumentation, same-tree identity is
# the invariant).
cmake --build "$tsan_dir" -j "$(nproc)" --target wtr_ckpt_harness
scale_devices=100000
scale_days=2
for tree in "$build_dir" "$tsan_dir"; do
  name=$(basename "$tree")
  for t in 1 4; do
    mkdir -p "$trace_tmp/scale-$name-t$t"
    TSAN_OPTIONS="halt_on_error=1" "$tree/tests/wtr_ckpt_harness" \
      --out "$trace_tmp/scale-$name-t$t" --faults \
      --devices "$scale_devices" --days "$scale_days" --threads "$t"
  done
  for f in records.bin metrics.txt probe.txt resilience.txt; do
    if ! cmp -s "$trace_tmp/scale-$name-t1/$f" "$trace_tmp/scale-$name-t4/$f"; then
      echo "check.sh: FAIL: scale smoke ($name): $f differs between threads=1 and threads=4" >&2
      exit 1
    fi
  done
done
echo "check.sh: scale-smoke lane passed (${scale_devices} agents, relayed resilience report, threads=1 == threads=4 under ASan and TSan)"

# --- Perfbench lane -----------------------------------------------------------
# perfbench/ builds its own out-of-tree package (.bench_build/) from src/.
# --selftest runs the C++ self-tests, the helper unit tests and a 2k-device
# smoke of all three workloads, untraced and traced, each checked against
# its stored smoke digest. The census digest hashes every DeviceSummary
# field (APNs as text), so a catalog or census output change fails here.
python3 perfbench/run.py --selftest
echo "check.sh: perfbench lane passed (self-tests + smoke digests of all workloads)"

# --- Perf gate (plain build: sanitizer overhead would swamp the timers) ----
baseline="bench/baselines/BENCH_p1_baseline.json"

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target bench_p1_pipeline_perf

WTR_BENCH_MANIFEST_DIR=. ./build/bench/bench_p1_pipeline_perf --manifest-only

if [[ "$rebaseline" == 1 ]]; then
  mkdir -p "$(dirname "$baseline")"
  cp BENCH_p1.json "$baseline"
  echo "check.sh: perf baseline refreshed at $baseline (commit it)"
elif [[ -f "$baseline" ]]; then
  python3 scripts/compare_manifest.py "$baseline" BENCH_p1.json
  echo "check.sh: perf gate passed (phase timers within 25% of baseline)"
else
  echo "check.sh: no perf baseline at $baseline; run with --rebaseline to create one" >&2
  exit 1
fi
