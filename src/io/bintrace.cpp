#include "io/bintrace.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "records/plmn_column.hpp"
#include "util/crc32.hpp"
#include "util/thread_pool.hpp"

namespace wtr::io {

namespace {

constexpr std::uint8_t kKindSignaling = 1;
constexpr std::uint8_t kKindCdr = 2;
constexpr std::uint8_t kKindXdr = 3;
constexpr std::uint8_t kKindDwell = 4;
constexpr std::uint8_t kKindEnd = 0xFF;

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

}  // namespace

bool is_binary_trace(std::istream& in) {
  const int c = in.peek();
  return c != std::char_traits<char>::eof() &&
         static_cast<unsigned char>(c) ==
             static_cast<unsigned char>(kBinaryTraceMagic[0]);
}

void DwellColumns::clear() {
  device.clear();
  day.clear();
  plmn.clear();
  lat.clear();
  lon.clear();
  seconds.clear();
}

// --- Writer -----------------------------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(WriteFn write)
    : BinaryTraceWriter(std::move(write), Options{}) {}

BinaryTraceWriter::BinaryTraceWriter(WriteFn write, Options options)
    : write_(std::move(write)), options_(options) {
  if (options_.block_records == 0) options_.block_records = 1;
  if (options_.emit_header) {
    std::string header{kBinaryTraceMagic};
    append_u32(header, kBinaryTraceVersion);
    emit(header);
  }
}

void BinaryTraceWriter::emit(std::string_view bytes) {
  write_(bytes);
  bytes_ += bytes.size();
}

void BinaryTraceWriter::require_open(const char* what) const {
  if (finished_) {
    throw BinaryTraceError(std::string("binary trace: ") + what +
                           " after finish()");
  }
}

void BinaryTraceWriter::write_block(std::uint8_t kind, const std::string& payload) {
  (void)kind;  // already the payload's first byte; kept for call-site clarity
  std::string frame;
  frame.reserve(8 + payload.size());
  append_u32(frame, static_cast<std::uint32_t>(payload.size()));
  append_u32(frame, util::crc32(payload));
  frame += payload;
  emit(frame);
}

template <typename Columns, typename WriteColumnsFn>
void BinaryTraceWriter::flush_family(std::uint8_t kind, Columns& columns,
                                     TraceDict& dict, WriteColumnsFn write_columns) {
  if (columns.size() == 0) return;
  util::BinWriter payload;
  payload.u8(kind);
  payload.varint(columns.size());
  dict.write(payload);
  write_columns(payload, columns);
  write_block(kind, payload.bytes());
  columns.clear();
  dict.clear();
}

void BinaryTraceWriter::add_signaling(const signaling::SignalingTransaction& txn,
                                      bool data_context) {
  require_open("add_signaling");
  records::bin_append(signaling_, signaling_dict_, txn, data_context);
  ++totals_.signaling;
  if (signaling_.size() >= options_.block_records) {
    flush_family(kKindSignaling, signaling_, signaling_dict_,
                 [](util::BinWriter& out, const records::RadioColumns& c) {
                   records::bin_write(out, c);
                 });
  }
}

void BinaryTraceWriter::add_cdr(const records::Cdr& cdr) {
  require_open("add_cdr");
  records::bin_append(cdr_, cdr_dict_, cdr);
  ++totals_.cdr;
  if (cdr_.size() >= options_.block_records) {
    flush_family(kKindCdr, cdr_, cdr_dict_,
                 [](util::BinWriter& out, const records::CdrColumns& c) {
                   records::bin_write(out, c);
                 });
  }
}

void BinaryTraceWriter::add_xdr(const records::Xdr& xdr) {
  require_open("add_xdr");
  records::bin_append(xdr_, xdr_dict_, xdr);
  ++totals_.xdr;
  if (xdr_.size() >= options_.block_records) {
    flush_family(kKindXdr, xdr_, xdr_dict_,
                 [](util::BinWriter& out, const records::XdrColumns& c) {
                   records::bin_write(out, c);
                 });
  }
}

void BinaryTraceWriter::add_dwell(signaling::DeviceHash device, std::int32_t day,
                                  cellnet::Plmn visited_plmn,
                                  const cellnet::GeoPoint& location, double seconds) {
  require_open("add_dwell");
  dwell_.device.push_back(device);
  dwell_.day.push_back(day);
  dwell_.plmn.push_back(records::intern_plmn(dwell_dict_, visited_plmn));
  dwell_.lat.push_back(location.lat);
  dwell_.lon.push_back(location.lon);
  dwell_.seconds.push_back(seconds);
  ++totals_.dwell;
  if (dwell_.size() >= options_.block_records) {
    flush_family(kKindDwell, dwell_, dwell_dict_,
                 [](util::BinWriter& out, const DwellColumns& c) {
                   write_varint_column(out, c.device);
                   write_delta_column(out, c.day);
                   write_dict_column(out, c.plmn);
                   write_f64_column(out, c.lat);
                   write_f64_column(out, c.lon);
                   write_f64_column(out, c.seconds);
                 });
  }
}

void BinaryTraceWriter::flush_blocks() {
  require_open("flush_blocks");
  flush_family(kKindSignaling, signaling_, signaling_dict_,
               [](util::BinWriter& out, const records::RadioColumns& c) {
                 records::bin_write(out, c);
               });
  flush_family(kKindCdr, cdr_, cdr_dict_,
               [](util::BinWriter& out, const records::CdrColumns& c) {
                 records::bin_write(out, c);
               });
  flush_family(kKindXdr, xdr_, xdr_dict_,
               [](util::BinWriter& out, const records::XdrColumns& c) {
                 records::bin_write(out, c);
               });
  flush_family(kKindDwell, dwell_, dwell_dict_,
               [](util::BinWriter& out, const DwellColumns& c) {
                 write_varint_column(out, c.device);
                 write_delta_column(out, c.day);
                 write_dict_column(out, c.plmn);
                 write_f64_column(out, c.lat);
                 write_f64_column(out, c.lon);
                 write_f64_column(out, c.seconds);
               });
}

void BinaryTraceWriter::finish() {
  if (finished_) return;
  flush_blocks();
  util::BinWriter payload;
  payload.u8(kKindEnd);
  payload.varint(totals_.signaling);
  payload.varint(totals_.cdr);
  payload.varint(totals_.xdr);
  payload.varint(totals_.dwell);
  write_block(kKindEnd, payload.bytes());
  finished_ = true;
}

void BinaryTraceWriter::restore(const TraceTotals& totals) {
  signaling_.clear();
  signaling_dict_.clear();
  cdr_.clear();
  cdr_dict_.clear();
  xdr_.clear();
  xdr_dict_.clear();
  dwell_.clear();
  dwell_dict_.clear();
  totals_ = totals;
  finished_ = false;
}

// --- Sink adapter -----------------------------------------------------------

BinaryTraceSink::BinaryTraceSink(std::ostream& out, BinaryTraceWriter::Options options)
    : writer_([&out](std::string_view bytes) {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      },
              options) {}

BinaryTraceSink::~BinaryTraceSink() {
  try {
    writer_.finish();
  } catch (...) {
    // Destructor must not throw; an unsealed stream is detected on read.
  }
}

void BinaryTraceSink::on_signaling(const signaling::SignalingTransaction& txn,
                                   bool data_context) {
  writer_.add_signaling(txn, data_context);
}

void BinaryTraceSink::on_cdr(const records::Cdr& cdr) { writer_.add_cdr(cdr); }

void BinaryTraceSink::on_xdr(const records::Xdr& xdr) { writer_.add_xdr(xdr); }

void BinaryTraceSink::on_dwell(signaling::DeviceHash device, std::int32_t day,
                               cellnet::Plmn visited_plmn,
                               const cellnet::GeoPoint& location, double seconds) {
  writer_.add_dwell(device, day, visited_plmn, location, seconds);
}

void BinaryTraceSink::finish() { writer_.finish(); }

// --- Reader -----------------------------------------------------------------
//
// replay() is a pipeline (DESIGN.md §4, "Trace replay"): the calling thread
// reads frames ahead into a ring of slots, decode workers turn each slot's
// payload into rows, and the calling thread hands the rows to the sink in
// file order. Only the calling thread touches the stream or the sink.

namespace {

/// Read up to n bytes; fewer only where the stream ends or fails.
std::size_t read_up_to(std::istream& in, char* out, std::size_t n) {
  in.read(out, static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount());
}

BinaryTraceError truncated(const char* what, std::size_t got, std::size_t n) {
  return BinaryTraceError(std::string("binary trace: truncated ") + what + " (" +
                          std::to_string(got) + " of " + std::to_string(n) +
                          " bytes)");
}

std::uint32_t decode_u32(const char* bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[i])) << (8 * i);
  }
  return v;
}

void check_crc(std::string_view payload, std::uint32_t crc) {
  if (util::crc32(payload) != crc) {
    throw BinaryTraceError("binary trace: block CRC mismatch (bit flip or torn "
                           "write)");
  }
}

/// A CRC-clean payload that still fails to decode (overlong varint,
/// dangling dictionary index, trailing bytes) is structural corruption;
/// rewrap the low-level binio/column errors under the format's error type.
template <typename Fn>
auto decode_or_throw(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const BinaryTraceError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw BinaryTraceError(
        std::string("binary trace: CRC-clean block fails to decode (") +
        e.what() + ")");
  }
}

using SignalingRow = std::pair<signaling::SignalingTransaction, bool>;

/// The arguments of one RecordSink::on_dwell call.
struct DwellRow {
  signaling::DeviceHash device = 0;
  std::int32_t day = 0;
  cellnet::Plmn plmn{};
  cellnet::GeoPoint location{};
  double seconds = 0.0;
};

/// A decoded block's valid rows. A slot keeps the capacity of one family at
/// a time: a block of another family replaces the vector.
using Rows = std::variant<std::vector<SignalingRow>, std::vector<records::Cdr>,
                          std::vector<records::Xdr>, std::vector<DwellRow>>;

/// One frame between its read and its delivery. The calling thread fills
/// `payload` and `crc` and submits the slot; one worker then writes the
/// decoded fields and sets `decoded`; the calling thread reads them only
/// after it has seen `decoded` set.
struct Slot {
  std::string payload;
  std::uint32_t crc = 0;
  Rows rows;
  std::uint64_t records = 0;     // the block's declared record count
  std::uint64_t bad_fields = 0;  // rows that failed field validation
  std::exception_ptr error;      // the decode failure; delivering it ends replay
  bool decoded = false;          // guarded by DecodePipeline::mutex_
};

template <typename Row, typename Extract>
void collect_rows(Slot& slot, std::size_t count, Extract extract) {
  auto* rows = std::get_if<std::vector<Row>>(&slot.rows);
  if (rows == nullptr) rows = &slot.rows.emplace<std::vector<Row>>();
  rows->clear();
  rows->reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (auto row = extract(i)) {
      rows->push_back(*row);
    } else {
      ++slot.bad_fields;
    }
  }
}

/// Decode a data block's payload into the slot's rows. Runs on a worker.
void decode_block(Slot& slot) {
  check_crc(slot.payload, slot.crc);
  util::BinReader block{slot.payload};
  const std::uint8_t kind = decode_or_throw([&] { return block.u8(); });
  const std::uint64_t n = decode_or_throw([&] { return block.varint(); });
  // Every record costs at least one byte per column; a declared count
  // beyond the payload is corrupt and must not drive the reserves below.
  if (n == 0 || n > block.remaining()) {
    throw BinaryTraceError("binary trace: implausible record count " +
                           std::to_string(n) + " in a " +
                           std::to_string(slot.payload.size()) + "-byte block");
  }
  const auto count = static_cast<std::size_t>(n);
  const std::vector<std::string> dict = decode_or_throw([&] { return read_dict(block); });
  // Parse the dictionary once per block: a dict holds tens of strings, a
  // block thousands of rows, so per-row Plmn::parse would dominate decode.
  // An unparsable entry stays nullopt; rows referencing it are bad fields.
  std::vector<std::optional<cellnet::Plmn>> plmns;
  plmns.reserve(dict.size());
  for (const auto& s : dict) plmns.push_back(cellnet::Plmn::parse(s));

  slot.records = n;
  slot.bad_fields = 0;
  switch (kind) {
    case kKindSignaling: {
      const auto columns = decode_or_throw([&] {
        auto c = records::bin_read_radio(block, count, dict.size());
        block.expect_exhausted("binary trace signaling block");
        return c;
      });
      collect_rows<SignalingRow>(slot, count, [&](std::size_t i) {
        return records::bin_extract(columns, plmns, i);
      });
      break;
    }
    case kKindCdr: {
      const auto columns = decode_or_throw([&] {
        auto c = records::bin_read_cdr(block, count, dict.size());
        block.expect_exhausted("binary trace cdr block");
        return c;
      });
      collect_rows<records::Cdr>(slot, count, [&](std::size_t i) {
        return records::bin_extract(columns, plmns, i);
      });
      break;
    }
    case kKindXdr: {
      const auto columns = decode_or_throw([&] {
        auto c = records::bin_read_xdr(block, count, dict.size());
        block.expect_exhausted("binary trace xdr block");
        return c;
      });
      const auto apns = records::bin_intern_apns(columns, dict);
      collect_rows<records::Xdr>(slot, count, [&](std::size_t i) {
        return records::bin_extract(columns, plmns, apns, i);
      });
      break;
    }
    case kKindDwell: {
      const DwellColumns columns = decode_or_throw([&] {
        DwellColumns c;
        c.device = read_varint_column(block, count);
        c.day = read_delta_column(block, count);
        c.plmn = read_dict_column(block, count, dict.size());
        c.lat = read_f64_column(block, count);
        c.lon = read_f64_column(block, count);
        c.seconds = read_f64_column(block, count);
        block.expect_exhausted("binary trace dwell block");
        return c;
      });
      collect_rows<DwellRow>(slot, count, [&](std::size_t i) -> std::optional<DwellRow> {
        const auto& plmn = plmns[columns.plmn[i]];
        if (!plmn) return std::nullopt;
        return DwellRow{columns.device[i], static_cast<std::int32_t>(columns.day[i]),
                        *plmn, cellnet::GeoPoint{columns.lat[i], columns.lon[i]},
                        columns.seconds[i]};
      });
      break;
    }
    default:
      throw BinaryTraceError("binary trace: unknown block kind " +
                             std::to_string(kind));
  }
}

/// Hands a decoded block's rows to the sink in order and adds the block's
/// declared count to its family's running total.
struct Deliver {
  sim::RecordSink& sink;
  TraceTotals& seen;
  std::uint64_t records;

  void operator()(const std::vector<SignalingRow>& rows) const {
    for (const auto& [txn, data_context] : rows) sink.on_signaling(txn, data_context);
    seen.signaling += records;
  }
  void operator()(const std::vector<records::Cdr>& rows) const {
    for (const auto& cdr : rows) sink.on_cdr(cdr);
    seen.cdr += records;
  }
  void operator()(const std::vector<records::Xdr>& rows) const {
    for (const auto& xdr : rows) sink.on_xdr(xdr);
    seen.xdr += records;
  }
  void operator()(const std::vector<DwellRow>& rows) const {
    for (const auto& row : rows) {
      sink.on_dwell(row.device, row.day, row.plmn, row.location, row.seconds);
    }
    seen.dwell += records;
  }
};

/// One decode worker per core beside the calling thread's, at most three:
/// past that, the one thread that delivers bounds the replay.
std::size_t decode_workers() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<std::size_t>(std::clamp(cores - 1, 1, 3));
}

/// The ring of slots between the calling thread and the decode workers. At
/// most workers + 2 frames are in flight (one per worker, one waiting to be
/// delivered, one being read), and their payloads add up to at most
/// BinaryTraceReader::kMaxBlockBytes. Every member function runs on the
/// calling thread.
class DecodePipeline {
 public:
  DecodePipeline(sim::RecordSink& sink, BinaryTraceStats& stats)
      : sink_(sink), stats_(stats), slots_(decode_workers() + 2),
        pool_(slots_.size() - 2) {}
  DecodePipeline(const DecodePipeline&) = delete;
  DecodePipeline& operator=(const DecodePipeline&) = delete;

  /// The slot to read the next frame into, once frames have been delivered
  /// in order until a slot is free and `length` more payload bytes fit.
  Slot& next_slot(std::uint32_t length) {
    while (in_flight_ == slots_.size() ||
           in_flight_bytes_ + length > BinaryTraceReader::kMaxBlockBytes) {
      deliver_oldest();
    }
    return slots_[(oldest_ + in_flight_) % slots_.size()];
  }

  /// Queue the slot next_slot() returned, its payload read, for decoding.
  void submit(Slot& slot, std::uint32_t crc) {
    slot.crc = crc;
    ++in_flight_;
    in_flight_bytes_ += slot.payload.size();
    pool_.submit([this, &slot] { decode(slot); });
  }

  /// Deliver every frame in flight.
  void drain() {
    while (in_flight_ > 0) deliver_oldest();
  }

  /// Throw a failure met reading the next frame, once the frames before it
  /// are delivered (or one of them has thrown first).
  [[noreturn]] void fail(const BinaryTraceError& error) {
    drain();
    throw error;
  }

  [[nodiscard]] const TraceTotals& seen() const noexcept { return seen_; }

 private:
  void decode(Slot& slot) noexcept {
    try {
      decode_block(slot);
    } catch (...) {
      slot.error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    slot.decoded = true;
    decoded_.notify_one();
  }

  void deliver_oldest() {
    Slot& slot = slots_[oldest_];
    {
      std::unique_lock<std::mutex> lock(mutex_);
      decoded_.wait(lock, [&slot] { return slot.decoded; });
      slot.decoded = false;
    }
    oldest_ = (oldest_ + 1) % slots_.size();
    --in_flight_;
    in_flight_bytes_ -= slot.payload.size();
    if (slot.error) std::rethrow_exception(slot.error);
    std::visit(Deliver{sink_, seen_, slot.records}, slot.rows);
    stats_.records += slot.records;
    stats_.delivered += slot.records - slot.bad_fields;
    stats_.bad_fields += slot.bad_fields;
    ++stats_.blocks;
    // Slots keep their buffers for the next frame, but not a payload buffer
    // past its share of the cap: the buffers kept never add up beyond it.
    if (slot.payload.capacity() > BinaryTraceReader::kMaxBlockBytes / slots_.size()) {
      slot.payload = std::string{};
    }
  }

  sim::RecordSink& sink_;
  BinaryTraceStats& stats_;
  TraceTotals seen_;
  std::vector<Slot> slots_;            // ring; oldest_ is delivered next
  std::size_t oldest_ = 0;
  std::size_t in_flight_ = 0;          // frames submitted, not yet delivered
  std::uint64_t in_flight_bytes_ = 0;  // their payload bytes
  std::mutex mutex_;
  std::condition_variable decoded_;
  // Last, so destroyed first: after a failure its destructor still runs the
  // queued decodes, which write into slots_ and signal through mutex_ and
  // decoded_, and joins the workers before those members go.
  util::ThreadPool pool_;
};

}  // namespace

BinaryTraceStats BinaryTraceReader::replay(sim::RecordSink& sink) {
  BinaryTraceStats stats;

  char header[12];
  const std::size_t header_bytes = read_up_to(in_, header, sizeof header);
  if (header_bytes == 0 && in_.eof()) {
    throw BinaryTraceError("binary trace: empty stream");
  }
  if (header_bytes != sizeof header) {
    throw truncated("file header", header_bytes, sizeof header);
  }
  if (std::string_view(header, 8) != kBinaryTraceMagic) {
    throw BinaryTraceError("binary trace: bad magic (not a WTRTRC1 stream)");
  }
  const std::uint32_t version = decode_u32(header + 8);
  if (version != kBinaryTraceVersion) {
    throw BinaryTraceError("binary trace: unsupported version " +
                           std::to_string(version) + " (reader speaks " +
                           std::to_string(kBinaryTraceVersion) + ")");
  }
  stats.bytes += sizeof header;

  DecodePipeline pipeline{sink, stats};
  char frame[8];
  while (true) {
    const std::size_t got = read_up_to(in_, frame, sizeof frame);
    if (got == 0 && in_.eof()) {
      pipeline.fail(BinaryTraceError(
          "binary trace: stream ends without the end marker (truncated "
          "file or writer crashed before finish())"));
    }
    if (got != sizeof frame) pipeline.fail(truncated("block header", got, sizeof frame));
    const std::uint32_t length = decode_u32(frame);
    const std::uint32_t crc = decode_u32(frame + 4);
    if (length == 0) pipeline.fail(BinaryTraceError("binary trace: zero-length block"));
    if (length > kMaxBlockBytes) {
      pipeline.fail(BinaryTraceError("binary trace: block length " +
                                     std::to_string(length) + " exceeds the " +
                                     std::to_string(kMaxBlockBytes) +
                                     "-byte cap (corrupt length?)"));
    }
    Slot& slot = pipeline.next_slot(length);
    slot.payload.resize(length);
    const std::size_t read = read_up_to(in_, slot.payload.data(), length);
    if (read != length) pipeline.fail(truncated("block payload", read, length));
    stats.bytes += sizeof frame + length;

    // The kind byte is read before its CRC is checked. If it is corrupt, the
    // frame still fails on its CRC, in order: on a worker when it no longer
    // reads as the end marker, below when it newly does.
    if (static_cast<std::uint8_t>(slot.payload[0]) != kKindEnd) {
      pipeline.submit(slot, crc);
      continue;
    }
    pipeline.drain();
    check_crc(slot.payload, crc);
    util::BinReader block{slot.payload};
    const TraceTotals declared = decode_or_throw([&] {
      TraceTotals totals;
      (void)block.u8();  // the kind byte
      totals.signaling = block.varint();
      totals.cdr = block.varint();
      totals.xdr = block.varint();
      totals.dwell = block.varint();
      block.expect_exhausted("binary trace end marker");
      return totals;
    });
    if (!(declared == pipeline.seen())) {
      throw BinaryTraceError(
          "binary trace: end-marker totals disagree with decoded records "
          "(a block was dropped or duplicated)");
    }
    break;
  }

  // Exactly one more frame header: only a clean EOF ends the replay.
  const std::size_t got = read_up_to(in_, frame, sizeof frame);
  if (got == 0 && in_.eof()) return stats;
  if (got != sizeof frame) throw truncated("block header", got, sizeof frame);
  throw BinaryTraceError("binary trace: trailing bytes after the end marker");
}

}  // namespace wtr::io
