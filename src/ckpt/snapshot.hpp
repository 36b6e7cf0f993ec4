#pragma once

// Crash-safe snapshot container for the checkpoint subsystem.
//
// On-disk layout (all integers little-endian):
//
//   magic[8]  "WTRCKPT1"
//   u32       format version (kSnapshotVersion)
//   u64       payload size in bytes
//   u32       payload CRC-32
//   u32       header CRC-32 (over the preceding 24 bytes)
//   payload   (opaque section stream, see Engine checkpoint format)
//   u32       payload CRC-32 (repeated — detects a torn tail)
//   magic[8]  "WTRCKEND"
//
// Writes are atomic: the snapshot lands in `<path>.tmp`, is flushed and
// fsync'ed, then rename(2)'d over `path` — a crash at any instant leaves
// either the previous complete snapshot or the new complete snapshot, never
// a torn file under the final name. Reads verify magic, version, length and
// both CRCs and throw SnapshotError with a diagnostic on any mismatch: a
// corrupted snapshot must be rejected loudly, never silently resumed.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/binio.hpp"

namespace wtr::obs {
class FlightRecorder;
}  // namespace wtr::obs

namespace wtr::ckpt {

// v3: the engine's agent section is hydration-flagged (dormant agents are
// omitted — their state is reconstructed at registration). Snapshots are
// process-local recovery files, so only the current version is read.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Thrown on any snapshot integrity or format failure (torn file, bit flip,
/// version or fingerprint mismatch). The message names the path and cause.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A component whose live state rides inside an engine checkpoint (sinks
/// with byte offsets, resilience reports, test accumulators). Registered on
/// the engine via register_checkpointable(); save/restore order follows
/// registration order, and the registered name is recorded in the snapshot
/// so a mismatched participant list fails loudly on resume.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void save_state(util::BinWriter& out) const = 0;
  virtual void restore_state(util::BinReader& in) = 0;
};

/// Atomically replace `path` with a snapshot wrapping `payload`. Throws
/// SnapshotError on any I/O failure (the previous snapshot, if any, is left
/// intact). A non-null flight recorder gets "ckpt_write" and "ckpt_fsync"
/// spans on `trace_track` (the caller's thread must own that track).
void write_snapshot_atomic(const std::string& path, std::string_view payload,
                           obs::FlightRecorder* trace = nullptr,
                           std::uint32_t trace_track = 0);

/// Read and verify a kSnapshotVersion snapshot; returns its payload. Throws
/// SnapshotError naming the path and the first integrity failure found
/// (including any other format version).
[[nodiscard]] std::string read_snapshot(const std::string& path);

}  // namespace wtr::ckpt
