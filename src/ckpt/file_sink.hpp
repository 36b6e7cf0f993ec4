#pragma once

// BinaryTraceFileSink: the durable trace sink. A RecordSink that streams
// every record family to a WTRTRC1 columnar trace file (io/bintrace.hpp),
// and a Checkpointable — the snapshot stores the flushed byte offset, and
// restore truncates the file back to that offset, discarding anything
// written after the checkpoint was taken. That truncate-on-restore is what
// makes an interrupted run's output splice byte-identically onto the
// resumed run's.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "ckpt/snapshot.hpp"
#include "io/bintrace.hpp"
#include "sim/device_agent.hpp"

namespace wtr::ckpt {

/// A snapshot first flushes the partial column blocks so the durable byte
/// offset covers every record delivered before it, and restore truncates
/// back to that block boundary (blocks are self-contained, so the truncated
/// prefix is a valid unsealed trace). finish() seals the stream with the
/// end marker; an unsealed file (crash before finish) is rejected loudly by
/// BinaryTraceReader.
class BinaryTraceFileSink final : public sim::RecordSink, public Checkpointable {
 public:
  /// Opens `path` for writing and emits the format header. `resume` opens
  /// the existing file for in-place update instead (restore_state will
  /// truncate it to the snapshot offset; the header is already on disk).
  /// Throws std::runtime_error when the file cannot be opened.
  explicit BinaryTraceFileSink(std::string path, bool resume = false);
  ~BinaryTraceFileSink() override;

  BinaryTraceFileSink(const BinaryTraceFileSink&) = delete;
  BinaryTraceFileSink& operator=(const BinaryTraceFileSink&) = delete;

  /// Flush partial blocks + fflush + fsync (graceful-shutdown path).
  void flush_and_sync();

  /// Borrow a flight recorder: flush_and_sync emits "sink_flush" spans on
  /// `track` (must be the engine track — flushes run on the engine thread).
  void set_trace(obs::FlightRecorder* trace, std::uint32_t track) noexcept {
    trace_ = trace;
    trace_track_ = track;
  }

  /// Flush everything and write the end marker. Idempotent.
  void finish();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return offset_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const io::TraceTotals& totals() const noexcept {
    return writer_->totals();
  }

  // --- RecordSink ----------------------------------------------------------
  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override;
  void on_cdr(const records::Cdr& cdr) override;
  void on_xdr(const records::Xdr& xdr) override;
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override;

  // --- Checkpointable ------------------------------------------------------
  /// Flushes partial blocks, fsyncs, and records the durable byte offset
  /// plus the running per-family record totals.
  void save_state(util::BinWriter& out) const override;
  /// Truncates the file to the snapshot's byte offset, repositions the
  /// write cursor, and resets the encoder to the snapshot's totals.
  void restore_state(util::BinReader& in) override;

 private:
  void write_bytes(std::string_view bytes);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t offset_ = 0;  // bytes written so far (== file size when flushed)
  std::unique_ptr<io::BinaryTraceWriter> writer_;
  obs::FlightRecorder* trace_ = nullptr;  // borrowed; null = no spans
  std::uint32_t trace_track_ = 0;
};

}  // namespace wtr::ckpt
