#pragma once

// WTRTRC1 — the versioned binary columnar trace format. This is the fast
// interchange path for paper-scale traces (tens of millions of records):
// where CSV replay pays getline + field split + strict reparse per row, the
// binary reader pays one CRC pass and a columnar decode per 4096-record
// block, and runs those on worker threads ahead of the calling thread,
// which hands the decoded blocks to the sink in file order. Built on
// util/binio + util/crc32; per-record column codecs live with their record
// types in src/records.
//
// On-disk layout (all integers little-endian; varints are LEB128):
//
//   magic[8]   89 'W' 'T' 'R' 'T' 'R' 'C' '1'   (0x89 cannot start a CSV
//              line, so one peeked byte auto-detects the format)
//   u32        format version (kBinaryTraceVersion)
//   block*     [u32 payload_len][u32 payload_crc32][payload]
//   end block  payload = [u8 0xFF][varint total_signaling][varint total_cdr]
//                        [varint total_xdr][varint total_dwell]
//
// Data block payload:
//
//   u8         record kind (1 signaling, 2 cdr, 3 xdr, 4 dwell)
//   varint     record count n
//   dict       varint entry count, then vstr entries (PLMN/APN strings
//              interned per block — blocks are fully self-contained)
//   columns    see records/{radio_event,cdr,xdr}.hpp and DwellColumns
//
// Integrity model: framing damage (bad magic/version, torn block, CRC
// mismatch, dangling dictionary index, missing end marker, count mismatch)
// throws BinaryTraceError — after a CRC failure nothing downstream can be
// trusted, so unlike dirty CSV there is no skip-and-count. A CRC-clean row
// whose enum byte or PLMN string fails validation is counted as a bad field
// and skipped, mirroring CSV replay semantics.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "io/trace_columns.hpp"
#include "records/cdr.hpp"
#include "records/radio_event.hpp"
#include "records/xdr.hpp"
#include "sim/device_agent.hpp"

namespace wtr::io {

inline constexpr std::uint32_t kBinaryTraceVersion = 1;
inline constexpr std::string_view kBinaryTraceMagic = "\x89WTRTRC1";

/// Thrown on any structural/integrity failure of a binary trace stream.
class BinaryTraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// True when the stream starts with the binary trace magic (single peeked
/// byte; the stream is not advanced). CSV/text traces never start with 0x89.
[[nodiscard]] bool is_binary_trace(std::istream& in);

/// Dwell rows have no record struct of their own (they are a RecordSink
/// callback); their columns live here.
struct DwellColumns {
  std::vector<std::uint64_t> device;
  std::vector<std::int64_t> day;
  std::vector<std::uint32_t> plmn;  // dict index of Plmn::to_string
  std::vector<double> lat;
  std::vector<double> lon;
  std::vector<double> seconds;

  [[nodiscard]] std::size_t size() const noexcept { return device.size(); }
  void clear();
};

/// Per-family record totals (the end-marker checksum).
struct TraceTotals {
  std::uint64_t signaling = 0;
  std::uint64_t cdr = 0;
  std::uint64_t xdr = 0;
  std::uint64_t dwell = 0;

  friend bool operator==(const TraceTotals&, const TraceTotals&) = default;
};

/// Streaming encoder. Bytes go out through `write` as soon as a block
/// fills, so memory stays bounded by ~4 partial blocks regardless of trace
/// size. Records of different families may interleave freely; within a
/// family, order is preserved.
class BinaryTraceWriter {
 public:
  using WriteFn = std::function<void(std::string_view)>;

  struct Options {
    std::size_t block_records = 4096;  // records per column block
    bool emit_header = true;           // false when resuming an existing file
  };

  // Two overloads instead of `Options options = {}`: a nested struct's
  // default member initializers are not usable in the enclosing class's
  // default arguments (complete-class context rule).
  explicit BinaryTraceWriter(WriteFn write);
  BinaryTraceWriter(WriteFn write, Options options);

  void add_signaling(const signaling::SignalingTransaction& txn, bool data_context);
  void add_cdr(const records::Cdr& cdr);
  void add_xdr(const records::Xdr& xdr);
  void add_dwell(signaling::DeviceHash device, std::int32_t day,
                 cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                 double seconds);

  /// Flush every partial block to the output (deterministic family order).
  /// Called automatically by finish(); call it directly before taking a
  /// byte-offset checkpoint so the offset covers all delivered records.
  void flush_blocks();

  /// Flush and write the end marker. Idempotent; further adds throw.
  void finish();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }
  [[nodiscard]] const TraceTotals& totals() const noexcept { return totals_; }

  /// Checkpoint-restore support: drop any records buffered past the restored
  /// byte offset and reset the running totals to the snapshot's.
  void restore(const TraceTotals& totals);

 private:
  void emit(std::string_view bytes);
  void write_block(std::uint8_t kind, const std::string& payload);
  template <typename Columns, typename WriteColumnsFn>
  void flush_family(std::uint8_t kind, Columns& columns, TraceDict& dict,
                    WriteColumnsFn write_columns);
  void require_open(const char* what) const;

  WriteFn write_;
  Options options_;
  bool finished_ = false;
  std::uint64_t bytes_ = 0;
  TraceTotals totals_;

  records::RadioColumns signaling_;
  TraceDict signaling_dict_;
  records::CdrColumns cdr_;
  TraceDict cdr_dict_;
  records::XdrColumns xdr_;
  TraceDict xdr_dict_;
  DwellColumns dwell_;
  TraceDict dwell_dict_;
};

/// RecordSink adapter over a BinaryTraceWriter targeting an ostream — the
/// binary sibling of a CSV trace exporter. Call finish() (or destroy the
/// sink) to seal the stream with the end marker.
class BinaryTraceSink final : public sim::RecordSink {
 public:
  explicit BinaryTraceSink(std::ostream& out, BinaryTraceWriter::Options options = {});
  ~BinaryTraceSink() override;

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override;
  void on_cdr(const records::Cdr& cdr) override;
  void on_xdr(const records::Xdr& xdr) override;
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override;

  void finish();
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return writer_.bytes_written();
  }
  [[nodiscard]] BinaryTraceWriter& writer() noexcept { return writer_; }

 private:
  BinaryTraceWriter writer_;
};

/// Replay outcome counters (the trace_replay layer maps these onto its
/// ReplayStats / metrics mirror).
struct BinaryTraceStats {
  std::uint64_t records = 0;     // rows decoded (delivered + bad_fields)
  std::uint64_t delivered = 0;   // rows handed to the sink
  std::uint64_t bad_fields = 0;  // CRC-clean rows failing field validation
  std::uint64_t blocks = 0;      // data blocks decoded
  std::uint64_t bytes = 0;       // total bytes consumed, header included
};

/// Streaming decoder with bounded memory. Up to three decode workers (one
/// per core beside the caller's) check and decode blocks ahead, at most
/// workers + 2 blocks and kMaxBlockBytes of payload at a time, while the
/// calling thread reads the stream and delivers every block's records to
/// the sink in file order, the same calls a one-block-at-a-time decode
/// makes. Throws BinaryTraceError on any structural failure (see header
/// comment) on the calling thread: a failure at block k, or the sink's own
/// exception, surfaces after blocks 0..k-1 are delivered and before any
/// record of block k or later. No worker outlives replay().
class BinaryTraceReader {
 public:
  /// Largest payload the reader will buffer; a declared length beyond this
  /// is rejected before any allocation (corrupt-length defense).
  static constexpr std::uint32_t kMaxBlockBytes = 1u << 26;

  explicit BinaryTraceReader(std::istream& in) : in_(in) {}

  /// Validate the header, decode every block into `sink`, verify the end
  /// marker totals, and require EOF right after.
  BinaryTraceStats replay(sim::RecordSink& sink);

 private:
  std::istream& in_;
};

}  // namespace wtr::io
