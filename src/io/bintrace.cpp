#include "io/bintrace.hpp"

#include <istream>
#include <ostream>

#include "records/plmn_column.hpp"
#include "util/crc32.hpp"

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

namespace {

/// Read exactly n bytes; false on clean EOF before the first byte, throws on
/// EOF mid-read (torn frame).
bool read_exact(std::istream& in, char* out, std::size_t n, const char* what) {
  in.read(out, static_cast<std::streamsize>(n));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got == n) return true;
  if (got == 0 && in.eof()) return false;
  throw BinaryTraceError(std::string("binary trace: truncated ") + what + " (" +
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

}  // namespace

BinaryTraceStats BinaryTraceReader::replay(sim::RecordSink& sink) {
  BinaryTraceStats stats;

  char header[12];
  if (!read_exact(in_, header, sizeof header, "file header")) {
    throw BinaryTraceError("binary trace: empty stream");
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

  TraceTotals seen;
  bool sealed = false;
  std::string payload;
  while (true) {
    char frame[8];
    if (!read_exact(in_, frame, sizeof frame, "block header")) {
      if (sealed) break;  // clean EOF after the end marker
      throw BinaryTraceError(
          "binary trace: stream ends without the end marker (truncated "
          "file or writer crashed before finish())");
    }
    if (sealed) {
      throw BinaryTraceError("binary trace: trailing bytes after the end marker");
    }
    const std::uint32_t length = decode_u32(frame);
    const std::uint32_t crc = decode_u32(frame + 4);
    if (length == 0) throw BinaryTraceError("binary trace: zero-length block");
    if (length > kMaxBlockBytes) {
      throw BinaryTraceError("binary trace: block length " +
                             std::to_string(length) + " exceeds the " +
                             std::to_string(kMaxBlockBytes) +
                             "-byte cap (corrupt length?)");
    }
    payload.resize(length);
    if (!read_exact(in_, payload.data(), length, "block payload")) {
      throw BinaryTraceError("binary trace: truncated block payload (0 of " +
                             std::to_string(length) + " bytes)");
    }
    if (util::crc32(payload) != crc) {
      throw BinaryTraceError("binary trace: block CRC mismatch (bit flip or torn "
                             "write)");
    }
    stats.bytes += sizeof frame + length;

    util::BinReader block{payload};
    const std::uint8_t kind = decode_or_throw([&] { return block.u8(); });
    if (kind == kKindEnd) {
      const TraceTotals declared = decode_or_throw([&] {
        TraceTotals totals;
        totals.signaling = block.varint();
        totals.cdr = block.varint();
        totals.xdr = block.varint();
        totals.dwell = block.varint();
        block.expect_exhausted("binary trace end marker");
        return totals;
      });
      if (!(declared == seen)) {
        throw BinaryTraceError(
            "binary trace: end-marker totals disagree with decoded records "
            "(a block was dropped or duplicated)");
      }
      sealed = true;
      continue;
    }

    const std::uint64_t n = decode_or_throw([&] { return block.varint(); });
    // Every record costs at least one byte per column; a declared count
    // beyond the payload is corrupt and must not drive the reserves below.
    if (n == 0 || n > block.remaining()) {
      throw BinaryTraceError("binary trace: implausible record count " +
                             std::to_string(n) + " in a " +
                             std::to_string(length) + "-byte block");
    }
    const auto count = static_cast<std::size_t>(n);
    const TraceDict dict = decode_or_throw([&] { return TraceDict::read(block); });
    const auto strings = dict.strings();
    // Parse the dictionary once per block: a dict holds tens of strings, a
    // block thousands of rows, so per-row Plmn::parse would dominate decode.
    // An unparsable entry stays nullopt; rows referencing it are bad fields.
    std::vector<std::optional<cellnet::Plmn>> plmns;
    plmns.reserve(strings.size());
    for (const auto& s : strings) plmns.push_back(cellnet::Plmn::parse(s));

    switch (kind) {
      case kKindSignaling: {
        const auto columns = decode_or_throw([&] {
          auto c = records::bin_read_radio(block, count, dict.size());
          block.expect_exhausted("binary trace signaling block");
          return c;
        });
        for (std::size_t i = 0; i < count; ++i) {
          if (const auto row = records::bin_extract(columns, plmns, i)) {
            sink.on_signaling(row->first, row->second);
            ++stats.delivered;
          } else {
            ++stats.bad_fields;
          }
        }
        seen.signaling += n;
        break;
      }
      case kKindCdr: {
        const auto columns = decode_or_throw([&] {
          auto c = records::bin_read_cdr(block, count, dict.size());
          block.expect_exhausted("binary trace cdr block");
          return c;
        });
        for (std::size_t i = 0; i < count; ++i) {
          if (const auto cdr = records::bin_extract(columns, plmns, i)) {
            sink.on_cdr(*cdr);
            ++stats.delivered;
          } else {
            ++stats.bad_fields;
          }
        }
        seen.cdr += n;
        break;
      }
      case kKindXdr: {
        const auto columns = decode_or_throw([&] {
          auto c = records::bin_read_xdr(block, count, dict.size());
          block.expect_exhausted("binary trace xdr block");
          return c;
        });
        const auto apns = records::bin_intern_apns(columns, strings);
        for (std::size_t i = 0; i < count; ++i) {
          if (const auto xdr = records::bin_extract(columns, plmns, apns, i)) {
            sink.on_xdr(*xdr);
            ++stats.delivered;
          } else {
            ++stats.bad_fields;
          }
        }
        seen.xdr += n;
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
        for (std::size_t i = 0; i < count; ++i) {
          const auto& plmn = plmns[columns.plmn[i]];
          if (!plmn) {
            ++stats.bad_fields;
            continue;
          }
          sink.on_dwell(columns.device[i], static_cast<std::int32_t>(columns.day[i]),
                        *plmn, cellnet::GeoPoint{columns.lat[i], columns.lon[i]},
                        columns.seconds[i]);
          ++stats.delivered;
        }
        seen.dwell += n;
        break;
      }
      default:
        throw BinaryTraceError("binary trace: unknown block kind " +
                               std::to_string(kind));
    }
    stats.records += n;
    ++stats.blocks;
  }
  return stats;
}

}  // namespace wtr::io
