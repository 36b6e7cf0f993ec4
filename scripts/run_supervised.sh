#!/usr/bin/env bash
# Crash-tolerant supervisor for wtr_ckpt_harness: start the run, and as long
# as it dies mid-flight (SIGKILL'd by the OOM killer, machine reboot mapped
# to a restart, Ctrl-C'd into a graceful exit-3 stop, ...) restart it with
# --resume from the last durable checkpoint until it completes. Resume is
# deterministic, so the supervised run's outputs are byte-identical to a
# never-interrupted run.
#
# Usage: scripts/run_supervised.sh <harness-binary> <out-dir> [harness args...]
#   e.g. scripts/run_supervised.sh build/tests/wtr_ckpt_harness /tmp/run \
#            --scenario mno --devices 2000 --ckpt-hours 6 --threads 4
#
# Exit codes: 0 = run completed; 2 = usage; 4 = snapshot rejected on resume
# (corruption — manual intervention required); 5 = restart budget exhausted.
#
# Hang detection (WTR_SUPERVISE_HANG_TIMEOUT_S=<seconds>, default 0 = off):
# the harness is passed --heartbeat <out-dir>/heartbeat.json and run in the
# background while the supervisor polls the heartbeat file's mtime. A child
# that is merely slow keeps rewriting the heartbeat and is left alone; a
# child whose heartbeat goes stale for longer than the timeout is presumed
# hung (deadlock, livelock, D-state I/O), killed with SIGKILL and restarted
# from the last checkpoint immediately — a hang is not a crash loop, so no
# backoff is applied. The child runs in its own session (setsid), and the
# kill takes its whole process group, so nothing a hung child started (a
# wrapper script's harness, say) outlives it beside the restarted run.

set -uo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <harness-binary> <out-dir> [harness args...]" >&2
  exit 2
fi

harness="$1"
out_dir="$2"
shift 2

max_restarts="${WTR_SUPERVISE_MAX_RESTARTS:-50}"
backoff_base_s="${WTR_SUPERVISE_BACKOFF_BASE_S:-1}"
backoff_cap_s="${WTR_SUPERVISE_BACKOFF_CAP_S:-60}"
hang_timeout_s="${WTR_SUPERVISE_HANG_TIMEOUT_S:-0}"
mkdir -p "$out_dir"
ckpt="$out_dir/ckpt.bin"
heartbeat="$out_dir/heartbeat.json"

# Age in whole seconds of the child's most recent sign of life: the
# heartbeat file's mtime when it exists, the child's start time before the
# first beat lands.
heartbeat_age_s() {
  local now mtime
  now=$(date +%s)
  mtime=$(stat -c %Y "$heartbeat" 2>/dev/null) || mtime="$1"
  echo $((now - mtime))
}

attempt=0
while :; do
  args=("--out" "$out_dir" "$@")
  if [[ $attempt -gt 0 && -f "$ckpt" ]]; then
    # A previous attempt left a durable checkpoint: resume from it. The
    # harness truncates records.bin back to the checkpointed offset itself.
    args+=("--resume")
  fi

  hung=0
  if [[ $hang_timeout_s -gt 0 ]]; then
    args+=("--heartbeat" "$heartbeat")
    rm -f "$heartbeat"
    start_ts=$(date +%s)
    # Backgrounded from a script (no job control), the child is no group
    # leader, so setsid makes it one in place: $child is also its group id.
    setsid "$harness" "${args[@]}" &
    child=$!
    # Its own session also keeps the child from the terminal's Ctrl-C, so
    # pass INT and TERM on to its group (the harness stops gracefully on
    # either) and exit as the supervisor did when it shared them.
    trap 'kill -INT -- -"$child" 2>/dev/null; exit 130' INT
    trap 'kill -TERM -- -"$child" 2>/dev/null; exit 143' TERM
    while kill -0 "$child" 2>/dev/null; do
      sleep 1
      kill -0 "$child" 2>/dev/null || break
      if [[ $(heartbeat_age_s "$start_ts") -ge $hang_timeout_s ]]; then
        echo "run_supervised: heartbeat stale for >=${hang_timeout_s}s;" \
             "killing hung child $child and its process group" >&2
        kill -9 -- -"$child" 2>/dev/null
        hung=1
        break
      fi
    done
    wait "$child"
    status=$?
    trap - INT TERM
  else
    "$harness" "${args[@]}"
    status=$?
  fi

  case $status in
    0)
      echo "run_supervised: completed after $attempt restart(s)" >&2
      exit 0
      ;;
    2 | 4)
      # Usage error or rejected snapshot: retrying cannot help.
      exit "$status"
      ;;
    *)
      # Interrupted (3) or killed outright (129+): restart and resume.
      attempt=$((attempt + 1))
      if [[ $attempt -gt $max_restarts ]]; then
        echo "run_supervised: giving up after $max_restarts restarts" >&2
        exit 5
      fi
      echo "run_supervised: harness exited $status; restart #$attempt" >&2
      if [[ ! -f "$ckpt" ]]; then
        echo "run_supervised: no checkpoint yet; restarting from scratch" >&2
      fi
      if [[ $hung -eq 1 ]]; then
        # A hang is not a crash loop: the machine is healthy and the child
        # was making no progress, so waiting before the restart only adds
        # dead time. Restart immediately.
        echo "run_supervised: hang restart; skipping backoff" >&2
        continue
      fi
      # A crash-looping harness (bad disk, exhausted memory, broken binary)
      # would otherwise hot-spin: exponential backoff with jitter so restarts
      # back off to $backoff_cap_s and don't synchronize with other
      # supervisors sharing the machine.
      delay=$((backoff_base_s * (1 << (attempt - 1 < 30 ? attempt - 1 : 30))))
      if [[ $delay -gt $backoff_cap_s || $delay -le 0 ]]; then
        delay=$backoff_cap_s
      fi
      delay=$((delay + RANDOM % (delay + 1)))
      echo "run_supervised: backing off ${delay}s before restart" >&2
      sleep "$delay"
      ;;
  esac
done
