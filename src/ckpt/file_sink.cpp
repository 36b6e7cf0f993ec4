#include "ckpt/file_sink.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"

namespace wtr::ckpt {

BinaryTraceFileSink::BinaryTraceFileSink(std::string path, bool resume)
    : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), resume ? "r+b" : "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("BinaryTraceFileSink: cannot open " + path_ + ": " +
                             std::strerror(errno));
  }
  if (resume) {
    std::fseek(file_, 0, SEEK_END);
    const auto end = std::ftell(file_);
    offset_ = end < 0 ? 0 : static_cast<std::uint64_t>(end);
  }
  io::BinaryTraceWriter::Options options;
  // On resume the header (and the prefix restore_state keeps) is already on
  // disk; re-emitting it would corrupt the stream.
  options.emit_header = !resume;
  writer_ = std::make_unique<io::BinaryTraceWriter>(
      [this](std::string_view bytes) { write_bytes(bytes); }, options);
}

BinaryTraceFileSink::~BinaryTraceFileSink() {
  if (file_ != nullptr) {
    try {
      finish();
    } catch (...) {
      // Destructors must not throw; an unsealed stream is detected on read.
    }
    std::fflush(file_);
    std::fclose(file_);
  }
}

void BinaryTraceFileSink::write_bytes(std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    throw std::runtime_error("BinaryTraceFileSink: short write to " + path_);
  }
  offset_ += bytes.size();
}

void BinaryTraceFileSink::flush_and_sync() {
  obs::TraceSpan span(trace_, trace_track_, obs::TraceCat::kSink, "sink_flush");
  span.set_args("bytes", static_cast<std::int64_t>(offset_));
  writer_->flush_blocks();
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("BinaryTraceFileSink: fflush failed for " + path_ +
                             ": " + std::strerror(errno));
  }
  if (::fsync(::fileno(file_)) != 0) {
    throw std::runtime_error("BinaryTraceFileSink: fsync failed for " + path_ +
                             ": " + std::strerror(errno));
  }
}

void BinaryTraceFileSink::finish() {
  writer_->finish();
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("BinaryTraceFileSink: fflush failed for " + path_ +
                             ": " + std::strerror(errno));
  }
}

void BinaryTraceFileSink::on_signaling(const signaling::SignalingTransaction& txn,
                                       bool data_context) {
  writer_->add_signaling(txn, data_context);
}

void BinaryTraceFileSink::on_cdr(const records::Cdr& cdr) { writer_->add_cdr(cdr); }

void BinaryTraceFileSink::on_xdr(const records::Xdr& xdr) { writer_->add_xdr(xdr); }

void BinaryTraceFileSink::on_dwell(signaling::DeviceHash device, std::int32_t day,
                                   cellnet::Plmn visited_plmn,
                                   const cellnet::GeoPoint& location,
                                   double seconds) {
  writer_->add_dwell(device, day, visited_plmn, location, seconds);
}

void BinaryTraceFileSink::save_state(util::BinWriter& out) const {
  // Make everything up to `offset_` durable before the snapshot that
  // references it hits the disk — a crash after the snapshot rename must
  // find at least `offset_` bytes in the trace file. Partial column blocks
  // live in the writer, not the stdio buffer, so they must be flushed into
  // the file first or the checkpointed offset would exclude records
  // already delivered to this sink.
  writer_->flush_blocks();
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    throw std::runtime_error(
        "BinaryTraceFileSink: flush-for-checkpoint failed for " + path_ + ": " +
        std::strerror(errno));
  }
  out.u64(offset_);
  const auto& totals = writer_->totals();
  out.u64(totals.signaling);
  out.u64(totals.cdr);
  out.u64(totals.xdr);
  out.u64(totals.dwell);
}

void BinaryTraceFileSink::restore_state(util::BinReader& in) {
  const auto offset = in.u64();
  io::TraceTotals totals;
  totals.signaling = in.u64();
  totals.cdr = in.u64();
  totals.xdr = in.u64();
  totals.dwell = in.u64();
  std::fflush(file_);
  if (::ftruncate(::fileno(file_), static_cast<off_t>(offset)) != 0) {
    throw std::runtime_error("BinaryTraceFileSink: ftruncate failed for " +
                             path_ + ": " + std::strerror(errno));
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    throw std::runtime_error("BinaryTraceFileSink: fseek failed for " + path_ +
                             ": " + std::strerror(errno));
  }
  offset_ = offset;
  // save_state flushed all partial blocks, so the file at `offset` ends on a
  // block boundary and the writer restarts with empty builders.
  writer_->restore(totals);
}

}  // namespace wtr::ckpt
