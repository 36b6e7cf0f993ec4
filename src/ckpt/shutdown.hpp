#pragma once

// Cooperative graceful-shutdown flag for SIGINT/SIGTERM. The handler only
// sets a volatile sig_atomic_t (the one async-signal-safe thing it may do);
// the engine polls it and, on a request, writes a final checkpoint when one
// is configured and returns with interrupted() set, so harnesses can drain
// their sinks and emit a *.partial manifest instead of losing buffered
// records to a hard kill.
//
// The shutdown rule (sim::Engine::run): a request stops the run between two
// wakes only when one shard steps agents in global pop order and no
// congestion model is installed. Otherwise it stops at the next barrier — a
// window end (cadence, congestion-bucket or stop-point boundary) where the
// shards are quiesced. A window that reaches the horizon completes the run:
// a request that arrives during it is not reported as an interruption.

namespace wtr::ckpt {

/// Install SIGINT + SIGTERM handlers that set the shutdown flag. A second
/// delivery of the same signal restores default disposition first, so a
/// double Ctrl-C still kills a wedged process. Idempotent.
void install_shutdown_handlers();

/// True once SIGINT/SIGTERM was received (or request_shutdown() called).
[[nodiscard]] bool shutdown_requested() noexcept;

/// Programmatic trigger — lets tests exercise the graceful-stop path
/// without raising a real signal.
void request_shutdown() noexcept;

/// Clear the flag (tests; a supervisor re-running in-process).
void reset_shutdown_flag() noexcept;

}  // namespace wtr::ckpt
