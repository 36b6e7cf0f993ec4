// WTRTRC1 binary trace tests: write→read round-trips (bit-exact doubles,
// hostile APN strings, multi-block streams), the structural-corruption
// error model, checkpointed truncate-on-restore for BinaryTraceFileSink,
// and CSV↔binary replay equivalence. The corruption suites are named
// BinaryTrace* so the scripts/check.sh corruption lane picks them up.

#include "io/bintrace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>

#include "ckpt/file_sink.hpp"
#include "core/trace_replay.hpp"
#include "stats/rng.hpp"
#include "util/binio.hpp"
#include "util/crc32.hpp"

namespace wtr::io {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

struct DwellRow {
  signaling::DeviceHash device;
  std::int32_t day;
  cellnet::Plmn plmn;
  cellnet::GeoPoint location;
  double seconds;
};

class CaptureSink final : public sim::RecordSink {
 public:
  std::vector<std::pair<signaling::SignalingTransaction, bool>> txns;
  std::vector<records::Cdr> cdrs;
  std::vector<records::Xdr> xdrs;
  std::vector<DwellRow> dwells;

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override {
    txns.emplace_back(txn, data_context);
  }
  void on_cdr(const records::Cdr& cdr) override { cdrs.push_back(cdr); }
  void on_xdr(const records::Xdr& xdr) override { xdrs.push_back(xdr); }
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override {
    dwells.push_back({device, day, visited_plmn, location, seconds});
  }
};

signaling::SignalingTransaction random_txn(stats::Rng& rng) {
  signaling::SignalingTransaction txn;
  txn.device = rng.next();
  txn.time = rng.between(-1'000'000, 100'000'000);
  txn.sim_plmn = cellnet::Plmn{214, static_cast<std::uint16_t>(rng.below(99)), 2};
  txn.visited_plmn = cellnet::Plmn{234, static_cast<std::uint16_t>(rng.below(99)), 2};
  txn.procedure = static_cast<signaling::Procedure>(rng.below(signaling::kProcedureCount));
  txn.result = static_cast<signaling::ResultCode>(rng.below(signaling::kResultCodeCount));
  txn.rat = static_cast<cellnet::Rat>(rng.below(cellnet::kRatCount));
  txn.sector = rng.below(1u << 20);
  txn.tac = static_cast<cellnet::Tac>(35'000'000 + rng.below(1'000'000));
  return txn;
}

void expect_txn_eq(const signaling::SignalingTransaction& a,
                   const signaling::SignalingTransaction& b) {
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.sim_plmn, b.sim_plmn);
  EXPECT_EQ(a.visited_plmn, b.visited_plmn);
  EXPECT_EQ(a.procedure, b.procedure);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.rat, b.rat);
  EXPECT_EQ(a.sector, b.sector);
  EXPECT_EQ(a.tac, b.tac);
}

TEST(BinaryTraceRoundTrip, MixedFamiliesMultiBlock) {
  stats::Rng rng{0xB17BA5Eu};
  std::ostringstream out;
  std::vector<std::pair<signaling::SignalingTransaction, bool>> txns;
  std::vector<records::Cdr> cdrs;
  std::vector<records::Xdr> xdrs;
  {
    BinaryTraceWriter::Options options;
    options.block_records = 7;  // force many blocks from few records
    BinaryTraceSink sink{out, options};
    for (int i = 0; i < 100; ++i) {
      const auto txn = random_txn(rng);
      const bool dc = rng.bernoulli(0.5);
      txns.emplace_back(txn, dc);
      sink.on_signaling(txn, dc);

      records::Cdr cdr;
      cdr.device = rng.next();
      cdr.time = rng.between(0, 1'000'000);
      cdr.sim_plmn = cellnet::Plmn{204, 4, 2};
      cdr.visited_plmn = cellnet::Plmn{234, 1, 2};
      cdr.duration_s = rng.uniform(0.0, 7200.0);
      cdr.rat = static_cast<cellnet::Rat>(rng.below(cellnet::kRatCount));
      cdrs.push_back(cdr);
      sink.on_cdr(cdr);

      records::Xdr xdr;
      xdr.device = rng.next();
      xdr.time = rng.between(0, 1'000'000);
      xdr.sim_plmn = cellnet::Plmn{214, 7, 2};
      xdr.visited_plmn = cellnet::Plmn{310, 410, 3};
      xdr.bytes_up = rng.below(1u << 30);
      xdr.bytes_down = rng.below(1u << 30);
      xdr.apn = "apn-" + std::to_string(rng.below(5)) + ".example.gprs";
      xdr.rat = static_cast<cellnet::Rat>(rng.below(cellnet::kRatCount));
      xdrs.push_back(xdr);
      sink.on_xdr(xdr);
    }
    sink.finish();
  }

  std::istringstream in{out.str()};
  CaptureSink sink;
  BinaryTraceReader reader{in};
  const auto stats = reader.replay(sink);
  EXPECT_EQ(stats.records, 300u);
  EXPECT_EQ(stats.delivered, 300u);
  EXPECT_EQ(stats.bad_fields, 0u);
  EXPECT_GT(stats.blocks, 40u);  // block_records=7 ⇒ ~15 blocks per family
  EXPECT_EQ(stats.bytes, out.str().size());

  ASSERT_EQ(sink.txns.size(), txns.size());
  for (std::size_t i = 0; i < txns.size(); ++i) {
    expect_txn_eq(sink.txns[i].first, txns[i].first);
    EXPECT_EQ(sink.txns[i].second, txns[i].second);
  }
  ASSERT_EQ(sink.cdrs.size(), cdrs.size());
  for (std::size_t i = 0; i < cdrs.size(); ++i) {
    EXPECT_EQ(sink.cdrs[i].device, cdrs[i].device);
    EXPECT_EQ(sink.cdrs[i].time, cdrs[i].time);
    EXPECT_EQ(sink.cdrs[i].sim_plmn, cdrs[i].sim_plmn);
    EXPECT_EQ(sink.cdrs[i].visited_plmn, cdrs[i].visited_plmn);
    // Bit-exact, not approximately-equal: the binary format's contract.
    EXPECT_EQ(bits_of(sink.cdrs[i].duration_s), bits_of(cdrs[i].duration_s));
    EXPECT_EQ(sink.cdrs[i].rat, cdrs[i].rat);
  }
  ASSERT_EQ(sink.xdrs.size(), xdrs.size());
  for (std::size_t i = 0; i < xdrs.size(); ++i) {
    EXPECT_EQ(sink.xdrs[i].device, xdrs[i].device);
    EXPECT_EQ(sink.xdrs[i].bytes_up, xdrs[i].bytes_up);
    EXPECT_EQ(sink.xdrs[i].bytes_down, xdrs[i].bytes_down);
    EXPECT_EQ(sink.xdrs[i].apn, xdrs[i].apn);
    EXPECT_EQ(sink.xdrs[i].rat, xdrs[i].rat);
  }
}

TEST(BinaryTraceRoundTrip, CongestionResultSurvivesBothCodecs) {
  // kCongestion is the newest ResultCode: pin its round-trip explicitly
  // (random_txn only covers it probabilistically) through the binary codec
  // and the CSV path, which serializes the enum by name.
  stats::Rng rng{0xC0 /* ngestion */};
  auto txn = random_txn(rng);
  txn.procedure = signaling::Procedure::kAttach;
  txn.result = signaling::ResultCode::kCongestion;
  EXPECT_EQ(signaling::result_code_name(txn.result), "Congestion");

  std::ostringstream bin_out;
  {
    BinaryTraceSink sink{bin_out};
    sink.on_signaling(txn, false);
  }
  std::ostringstream csv_out;
  io::CsvWriter writer{csv_out};
  writer.write_row(signaling::csv_header());
  writer.write_row(signaling::to_csv_fields(txn));

  for (const auto& text : {bin_out.str(), csv_out.str()}) {
    std::istringstream in{text};
    CaptureSink sink;
    const auto stats = core::replay_signaling_trace(in, sink);
    EXPECT_EQ(stats.delivered, 1u);
    ASSERT_EQ(sink.txns.size(), 1u);
    expect_txn_eq(sink.txns.front().first, txn);
    EXPECT_EQ(sink.txns.front().first.result, signaling::ResultCode::kCongestion);
  }
}

TEST(BinaryTraceRoundTrip, HostileApnStrings) {
  // The dictionary is length-prefixed, so strings that would wreck CSV
  // (commas, quotes, newlines, NULs) must travel verbatim.
  const std::vector<std::string> apns{
      "with,comma.gprs", "with\"quote\".gprs", "multi\nline.gprs",
      std::string("nul\0byte.gprs", 13), "", "plain.mnc004.mcc204.gprs"};
  std::ostringstream out;
  {
    BinaryTraceSink sink{out};
    for (std::size_t i = 0; i < apns.size(); ++i) {
      records::Xdr xdr;
      xdr.device = i + 1;
      xdr.time = static_cast<stats::SimTime>(i);
      xdr.sim_plmn = cellnet::Plmn{214, 7, 2};
      xdr.visited_plmn = cellnet::Plmn{234, 1, 2};
      xdr.bytes_up = 1;
      xdr.bytes_down = 2;
      xdr.apn = apns[i];
      xdr.rat = cellnet::Rat::kFourG;
      sink.on_xdr(xdr);
    }
  }
  std::istringstream in{out.str()};
  CaptureSink sink;
  BinaryTraceReader{in}.replay(sink);
  ASSERT_EQ(sink.xdrs.size(), apns.size());
  for (std::size_t i = 0; i < apns.size(); ++i) EXPECT_EQ(sink.xdrs[i].apn, apns[i]);
}

TEST(BinaryTraceRoundTrip, DwellDoublesBitExactIncludingNanInf) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values{0.0, -0.0, 1e-308, nan, inf, -inf, 86399.999};
  std::ostringstream out;
  {
    BinaryTraceSink sink{out};
    for (std::size_t i = 0; i < values.size(); ++i) {
      sink.on_dwell(i + 1, static_cast<std::int32_t>(i), cellnet::Plmn{262, 1, 2},
                    cellnet::GeoPoint{values[i], -values[i]}, values[i]);
    }
  }
  std::istringstream in{out.str()};
  CaptureSink sink;
  const auto stats = BinaryTraceReader{in}.replay(sink);
  EXPECT_EQ(stats.delivered, values.size());
  ASSERT_EQ(sink.dwells.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // NaN != NaN, -0.0 == 0.0: compare the bit patterns, not the values.
    EXPECT_EQ(bits_of(sink.dwells[i].seconds), bits_of(values[i]));
    EXPECT_EQ(bits_of(sink.dwells[i].location.lat), bits_of(values[i]));
    EXPECT_EQ(bits_of(sink.dwells[i].location.lon), bits_of(-values[i]));
    EXPECT_EQ(sink.dwells[i].plmn, (cellnet::Plmn{262, 1, 2}));
  }
}

TEST(BinaryTraceRoundTrip, EmptyTraceIsJustHeaderAndEndMarker) {
  std::ostringstream out;
  { BinaryTraceSink sink{out}; }
  std::istringstream in{out.str()};
  CaptureSink sink;
  const auto stats = BinaryTraceReader{in}.replay(sink);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.blocks, 0u);
}

TEST(BinaryTraceRoundTrip, FinishIsIdempotentAndAddsAfterFinishThrow) {
  std::ostringstream out;
  BinaryTraceSink sink{out};
  sink.on_dwell(1, 0, cellnet::Plmn{262, 1, 2}, cellnet::GeoPoint{0, 0}, 1.0);
  sink.finish();
  const auto size = out.str().size();
  sink.finish();  // idempotent: no second end marker
  EXPECT_EQ(out.str().size(), size);
  EXPECT_THROW(sink.on_cdr(records::Cdr{}), BinaryTraceError);
}

// --- Field-level validation (CRC-clean but semantically bad rows) -----------

/// Hand-frame a stream: header + the given payloads (each gets length+CRC
/// framing) + optionally an end marker with the given totals.
std::string frame_stream(const std::vector<std::string>& payloads,
                         const TraceTotals* totals) {
  std::string out{kBinaryTraceMagic};
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>(kBinaryTraceVersion >> (8 * i)));
  auto frame = [&out](const std::string& payload) {
    const auto len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = util::crc32(payload);
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(len >> (8 * i)));
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(crc >> (8 * i)));
    out += payload;
  };
  for (const auto& payload : payloads) frame(payload);
  if (totals != nullptr) {
    util::BinWriter end;
    end.u8(0xFF);
    end.varint(totals->signaling);
    end.varint(totals->cdr);
    end.varint(totals->xdr);
    end.varint(totals->dwell);
    frame(end.bytes());
  }
  return out;
}

/// One signaling block whose dictionary holds `plmn_str` for both PLMN
/// columns — lets tests feed unparsable dictionary strings.
std::string signaling_block_payload(const std::string& plmn_str) {
  util::BinWriter payload;
  payload.u8(1);      // kind: signaling
  payload.varint(1);  // one record
  TraceDict dict;
  (void)dict.intern(plmn_str);
  dict.write(payload);
  records::RadioColumns columns;
  columns.device.push_back(42);
  columns.time.push_back(100);
  columns.sim_plmn.push_back(0);
  columns.visited_plmn.push_back(0);
  columns.procedure.push_back(0);
  columns.result.push_back(0);
  columns.rat.push_back(0);
  columns.sector.push_back(1);
  columns.tac.push_back(35'000'000);
  columns.data_context.push_back(true);
  records::bin_write(payload, columns);
  return payload.bytes();
}

TEST(BinaryTraceValidation, UnparsablePlmnIsBadFieldNotFatal) {
  TraceTotals totals;
  totals.signaling = 2;
  const auto stream = frame_stream(
      {signaling_block_payload("not-a-plmn"), signaling_block_payload("214-07")},
      &totals);
  std::istringstream in{stream};
  CaptureSink sink;
  const auto stats = BinaryTraceReader{in}.replay(sink);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.bad_fields, 1u);
  ASSERT_EQ(sink.txns.size(), 1u);
  EXPECT_EQ(sink.txns.front().first.device, 42u);
}

TEST(BinaryTraceValidation, OutOfRangeEnumIsBadField) {
  util::BinWriter payload;
  payload.u8(2);      // kind: cdr
  payload.varint(1);
  TraceDict dict;
  (void)dict.intern("214-07");
  dict.write(payload);
  records::CdrColumns columns;
  columns.device.push_back(1);
  columns.time.push_back(1);
  columns.sim_plmn.push_back(0);
  columns.visited_plmn.push_back(0);
  columns.duration_s.push_back(10.0);
  columns.rat.push_back(99);  // no such RAT
  records::bin_write(payload, columns);
  TraceTotals totals;
  totals.cdr = 1;
  std::istringstream in{frame_stream({payload.bytes()}, &totals)};
  CaptureSink sink;
  const auto stats = BinaryTraceReader{in}.replay(sink);
  EXPECT_EQ(stats.bad_fields, 1u);
  EXPECT_EQ(stats.delivered, 0u);
}

// --- Structural corruption (must throw, never deliver garbage) --------------

std::string valid_trace(int records = 20) {
  std::ostringstream out;
  BinaryTraceWriter::Options options;
  options.block_records = 8;
  BinaryTraceSink sink{out, options};
  stats::Rng rng{7};
  for (int i = 0; i < records; ++i) sink.on_signaling(random_txn(rng), true);
  sink.finish();
  return out.str();
}

void expect_rejected(const std::string& bytes) {
  std::istringstream in{bytes};
  CaptureSink sink;
  EXPECT_THROW(BinaryTraceReader{in}.replay(sink), BinaryTraceError);
}

TEST(BinaryTraceCorruption, EmptyStream) { expect_rejected(""); }

TEST(BinaryTraceCorruption, BadMagic) {
  auto bytes = valid_trace();
  bytes[3] ^= 0x01;
  expect_rejected(bytes);
  // A CSV file fed to the binary reader is the same failure mode.
  expect_rejected("device,time,sim_plmn\n1,2,214-07\n");
}

TEST(BinaryTraceCorruption, UnsupportedVersion) {
  auto bytes = valid_trace();
  bytes[8] = 0x7F;  // version LSB
  expect_rejected(bytes);
}

TEST(BinaryTraceCorruption, TruncatedAnywhere) {
  const auto bytes = valid_trace();
  // Cut at several points: inside the header, a block header, a payload,
  // and just before the end marker completes.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{14}, bytes.size() / 2, bytes.size() - 1}) {
    expect_rejected(bytes.substr(0, keep));
  }
}

TEST(BinaryTraceCorruption, EveryBitFlipIsDetected) {
  // CRC + framing must catch a single flipped bit anywhere past the magic.
  const auto bytes = valid_trace(10);
  stats::Rng rng{13};
  for (int trial = 0; trial < 200; ++trial) {
    const auto pos = 8 + static_cast<std::size_t>(rng.below(bytes.size() - 8));
    auto corrupted = bytes;
    corrupted[pos] ^= static_cast<char>(1u << rng.below(8));
    std::istringstream in{corrupted};
    CaptureSink sink;
    try {
      const auto stats = BinaryTraceReader{in}.replay(sink);
      // A flip that survives replay may only have hit a dictionary string
      // (CRC would catch it...) — no: CRC covers everything. Any clean
      // replay here means the flip produced an identical byte, impossible
      // with XOR. So reaching this line is a real detection failure.
      ADD_FAILURE() << "bit flip at byte " << pos << " went undetected (records="
                    << stats.records << ")";
    } catch (const BinaryTraceError&) {
      // expected
    } catch (const std::runtime_error&) {
      // binio-level truncation surfaced mid-payload decode — also a loud
      // rejection, acceptable.
    }
  }
}

TEST(BinaryTraceCorruption, OversizedBlockLengthRejectedBeforeAllocation) {
  std::string bytes{kBinaryTraceMagic};
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<char>(kBinaryTraceVersion >> (8 * i)));
  const std::uint32_t huge = BinaryTraceReader::kMaxBlockBytes + 1;
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(huge >> (8 * i)));
  for (int i = 0; i < 4; ++i) bytes.push_back(0);  // crc
  expect_rejected(bytes);
}

TEST(BinaryTraceCorruption, MissingEndMarker) {
  // A writer that crashed before finish(): structurally valid blocks, no
  // seal. Must throw, not silently return a partial record set.
  const auto payload = signaling_block_payload("214-07");
  expect_rejected(frame_stream({payload}, nullptr));
}

TEST(BinaryTraceCorruption, EndMarkerTotalsMismatch) {
  TraceTotals wrong;
  wrong.signaling = 5;  // stream carries 1
  expect_rejected(frame_stream({signaling_block_payload("214-07")}, &wrong));
}

TEST(BinaryTraceCorruption, TrailingBytesAfterEndMarker) {
  auto bytes = valid_trace();
  bytes += "extra";
  expect_rejected(bytes);
}

TEST(BinaryTraceCorruption, DanglingDictIndex) {
  util::BinWriter payload;
  payload.u8(4);      // kind: dwell
  payload.varint(1);
  TraceDict dict;     // EMPTY dictionary
  dict.write(payload);
  DwellColumns columns;
  columns.device.push_back(1);
  columns.day.push_back(0);
  columns.plmn.push_back(0);  // index into empty dict
  columns.lat.push_back(0.0);
  columns.lon.push_back(0.0);
  columns.seconds.push_back(1.0);
  write_varint_column(payload, columns.device);
  write_delta_column(payload, columns.day);
  write_dict_column(payload, columns.plmn);
  write_f64_column(payload, columns.lat);
  write_f64_column(payload, columns.lon);
  write_f64_column(payload, columns.seconds);
  TraceTotals totals;
  totals.dwell = 1;
  expect_rejected(frame_stream({payload.bytes()}, &totals));
}

// --- Checkpointable file sink ----------------------------------------------

TEST(BinaryTraceFileSink, TruncateOnRestoreSplicesByteIdentically) {
  namespace fs = std::filesystem;
  const auto path = (fs::temp_directory_path() / "wtr_test_bintrace_sink.bin").string();
  stats::Rng rng{21};
  std::vector<signaling::SignalingTransaction> before;
  std::vector<signaling::SignalingTransaction> after;
  for (int i = 0; i < 10; ++i) before.push_back(random_txn(rng));
  for (int i = 0; i < 10; ++i) after.push_back(random_txn(rng));

  util::BinWriter snapshot;
  {
    ckpt::BinaryTraceFileSink sink{path};
    for (const auto& txn : before) sink.on_signaling(txn, true);
    sink.save_state(snapshot);
    // Records delivered after the snapshot must vanish on restore.
    for (int i = 0; i < 5; ++i) sink.on_signaling(random_txn(rng), false);
    sink.flush_and_sync();
    util::BinReader in{snapshot.bytes()};
    sink.restore_state(in);
    for (const auto& txn : after) sink.on_signaling(txn, true);
    sink.finish();
  }

  std::ifstream file{path, std::ios::binary};
  CaptureSink sink;
  const auto stats = BinaryTraceReader{file}.replay(sink);
  fs::remove(path);
  EXPECT_EQ(stats.delivered, before.size() + after.size());
  ASSERT_EQ(sink.txns.size(), 20u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    expect_txn_eq(sink.txns[i].first, before[i]);
  }
  for (std::size_t i = 0; i < after.size(); ++i) {
    expect_txn_eq(sink.txns[10 + i].first, after[i]);
  }
}

TEST(BinaryTraceFileSink, CrashWithoutFinishIsDetectedOnRead) {
  namespace fs = std::filesystem;
  const auto path = (fs::temp_directory_path() / "wtr_test_bintrace_unsealed.bin").string();
  stats::Rng rng{22};
  {
    ckpt::BinaryTraceFileSink sink{path};
    sink.on_signaling(random_txn(rng), true);
    sink.flush_and_sync();
    // Simulate a crash: drop the sink's writer state without finish() by
    // reading the file as it exists mid-run.
    std::ifstream file{path, std::ios::binary};
    CaptureSink capture;
    EXPECT_THROW(BinaryTraceReader{file}.replay(capture), BinaryTraceError);
  }
  fs::remove(path);
}

// --- Interop with the replay layer ------------------------------------------

TEST(BinaryTraceReplay, AutoDetectDispatchesBothFormats) {
  stats::Rng rng{31};
  const auto txn = random_txn(rng);

  std::ostringstream bin_out;
  {
    BinaryTraceSink sink{bin_out};
    sink.on_signaling(txn, true);
  }
  std::ostringstream csv_out;
  io::CsvWriter writer{csv_out};
  writer.write_row(signaling::csv_header());
  writer.write_row(signaling::to_csv_fields(txn));

  for (const auto& text : {bin_out.str(), csv_out.str()}) {
    std::istringstream in{text};
    CaptureSink sink;
    const auto stats = core::replay_signaling_trace(in, sink);
    EXPECT_EQ(stats.delivered, 1u);
    ASSERT_EQ(sink.txns.size(), 1u);
    expect_txn_eq(sink.txns.front().first, txn);
  }
}

TEST(BinaryTraceReplay, CsvAndBinaryReplayEquivalently) {
  // The same records exported to CSV and (via CSV replay, so both carry the
  // post-rounding values) to binary must replay into identical captures.
  stats::Rng rng{41};
  std::ostringstream csv_out;
  io::CsvWriter writer{csv_out};
  writer.write_row(signaling::csv_header());
  std::vector<signaling::SignalingTransaction> txns;
  for (int i = 0; i < 50; ++i) {
    txns.push_back(random_txn(rng));
    writer.write_row(signaling::to_csv_fields(txns.back()));
  }

  std::ostringstream bin_out;
  {
    BinaryTraceSink bin_sink{bin_out};
    std::istringstream in{csv_out.str()};
    core::replay_signaling_csv(in, bin_sink);
  }

  CaptureSink from_csv;
  CaptureSink from_bin;
  {
    std::istringstream in{csv_out.str()};
    core::replay_signaling_trace(in, from_csv);
  }
  {
    std::istringstream in{bin_out.str()};
    core::replay_signaling_trace(in, from_bin);
  }
  ASSERT_EQ(from_csv.txns.size(), txns.size());
  ASSERT_EQ(from_bin.txns.size(), txns.size());
  for (std::size_t i = 0; i < txns.size(); ++i) {
    expect_txn_eq(from_csv.txns[i].first, from_bin.txns[i].first);
    EXPECT_EQ(from_csv.txns[i].second, from_bin.txns[i].second);
  }
}

TEST(BinaryTraceReplay, EmbeddedNewlineApnSurvivesCsvReplay) {
  // Satellite regression: the CSV writer quotes an APN containing '\n';
  // line-at-a-time decode used to split it into two bad rows. With logical
  // rows the record replays intact through BOTH formats.
  records::Xdr xdr;
  xdr.device = 9;
  xdr.time = 5;
  xdr.sim_plmn = cellnet::Plmn{214, 7, 2};
  xdr.visited_plmn = cellnet::Plmn{234, 1, 2};
  xdr.bytes_up = 10;
  xdr.bytes_down = 20;
  xdr.apn = "weird\nnewline.gprs";
  xdr.rat = cellnet::Rat::kFourG;

  std::ostringstream csv_out;
  io::CsvWriter writer{csv_out};
  writer.write_row(records::xdr_csv_header());
  writer.write_row(records::to_csv_fields(xdr));

  CaptureSink sink;
  std::istringstream in{csv_out.str()};
  const auto stats = core::replay_xdr_trace(in, sink);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_TRUE(stats.clean());
  ASSERT_EQ(sink.xdrs.size(), 1u);
  EXPECT_EQ(sink.xdrs.front().apn, "weird\nnewline.gprs");

  std::ostringstream bin_out;
  {
    BinaryTraceSink bin_sink{bin_out};
    bin_sink.on_xdr(xdr);
  }
  CaptureSink bin_capture;
  std::istringstream bin_in{bin_out.str()};
  core::replay_xdr_trace(bin_in, bin_capture);
  ASSERT_EQ(bin_capture.xdrs.size(), 1u);
  EXPECT_EQ(bin_capture.xdrs.front().apn, "weird\nnewline.gprs");
}


TEST(BinaryTraceDict, KeyedInternMatchesStringIntern) {
  // A keyed miss goes through the string table: keyed and plain entries for
  // the same text share one index, and render() runs once per key.
  TraceDict dict;
  int renders = 0;
  auto render = [&renders](std::string text) {
    return [&renders, text] {
      ++renders;
      return text;
    };
  };
  EXPECT_EQ(dict.intern("214-07"), 0u);
  EXPECT_EQ(dict.intern(7, render("214-07")), 0u);
  EXPECT_EQ(dict.intern(9, render("310-410")), 1u);
  EXPECT_EQ(dict.intern(9, render("unused")), 1u);
  EXPECT_EQ(dict.intern("310-410"), 1u);
  EXPECT_EQ(renders, 2);
  ASSERT_EQ(dict.size(), 2u);

  // clear() forgets keys too: the next block renders afresh.
  dict.clear();
  EXPECT_EQ(dict.intern(9, render("310-410")), 0u);
  EXPECT_EQ(renders, 3);
  EXPECT_EQ(dict.strings().front(), "310-410");
}

// --- Golden bytes across commits --------------------------------------------
// Every other byte-identity check compares two runs of the same build, so a
// change to dictionary order, column layout or framing that still round-trips
// would go unnoticed. These pin the exact bytes: length plus an FNV-1a-64 of
// them (not CRC-32: the digest must not share code with the bytes it pins,
// which embed CRC-32 values). A legitimate format change must update the
// pinned values on purpose.

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(BinaryTraceGolden, StreamBytesArePinned) {
  std::string bytes;
  BinaryTraceWriter::Options options;
  options.block_records = 3;
  BinaryTraceWriter writer{[&bytes](std::string_view b) { bytes.append(b); },
                           options};

  const cellnet::Plmn es07{214, 7, 2};   // "214-07"
  const cellnet::Plmn es007{214, 7, 3};  // "214-007": same digits, wider MNC
  const cellnet::Plmn uk{234, 15, 2};
  const cellnet::Plmn us{310, 410, 3};
  // Not valid PLMNs, and equal under Plmn::key(): "001-00" vs "000-1024".
  const cellnet::Plmn odd_a{1, 0, 2};
  const cellnet::Plmn odd_b{0, 1024, 2};

  auto add_signaling = [&](std::uint64_t device, stats::SimTime time,
                           cellnet::Plmn sim, cellnet::Plmn visited) {
    signaling::SignalingTransaction txn;
    txn.device = device;
    txn.time = time;
    txn.sim_plmn = sim;
    txn.visited_plmn = visited;
    txn.procedure = static_cast<signaling::Procedure>(device % 3);
    txn.result = static_cast<signaling::ResultCode>(device % 2);
    txn.rat = static_cast<cellnet::Rat>(device % 3);
    txn.sector = static_cast<cellnet::SectorId>(1000 + device);
    txn.tac = static_cast<cellnet::Tac>(35'000'000 + device);
    writer.add_signaling(txn, device % 2 == 0);
  };
  auto add_cdr = [&](std::uint64_t device, stats::SimTime time, cellnet::Plmn sim,
                     cellnet::Plmn visited) {
    records::Cdr c;
    c.device = device;
    c.time = time;
    c.sim_plmn = sim;
    c.visited_plmn = visited;
    c.duration_s = 12.5 * static_cast<double>(device);
    c.rat = cellnet::Rat::kThreeG;
    writer.add_cdr(c);
  };
  auto add_xdr = [&](std::uint64_t device, stats::SimTime time, cellnet::Plmn sim,
                     cellnet::Plmn visited, std::string apn) {
    records::Xdr x;
    x.device = device;
    x.time = time;
    x.sim_plmn = sim;
    x.visited_plmn = visited;
    x.bytes_up = 100 * device;
    x.bytes_down = 7 * device;
    x.apn = std::move(apn);
    x.rat = cellnet::Rat::kFourG;
    writer.add_xdr(x);
  };
  auto add_dwell = [&](std::uint64_t device, std::int32_t day, cellnet::Plmn visited) {
    writer.add_dwell(device, day, visited,
                     cellnet::GeoPoint{40.0 + static_cast<double>(device), -3.5},
                     3600.0 + static_cast<double>(device));
  };

  // Two full blocks per family (block_records = 3) with the same PLMNs, so
  // every PLMN repeats across a block boundary.
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const auto t = static_cast<stats::SimTime>(60 * i);
    add_signaling(i, t, es07, i % 2 == 0 ? es007 : uk);
    add_cdr(i, t, i % 3 == 0 ? es007 : es07, uk);
    add_dwell(i, static_cast<std::int32_t>(i / 2), i % 2 == 0 ? es007 : es07);
  }
  // xDR: an APN equal to a PLMN rendering before that PLMN shows up as a
  // PLMN ("214-007"), one after ("214-07"), and an empty APN.
  add_xdr(1, 10, uk, us, "214-007");
  add_xdr(2, 20, es07, es007, "214-07");
  add_xdr(3, 30, es007, uk, "");
  add_xdr(4, 40, es007, es07, "m2m.example.gprs");
  add_xdr(5, 50, us, us, "");
  // Invalid PLMNs that collide under Plmn::key() keep separate entries.
  add_signaling(7, 420, odd_a, odd_b);
  add_signaling(8, 480, odd_b, odd_a);
  // Every family now holds a partial block; flush them mid-block.
  writer.flush_blocks();

  // Checkpoint, write past it (some blocks reach the output, some stay
  // buffered), then roll back the way BinaryTraceFileSink does on resume.
  const std::size_t checkpoint_offset = bytes.size();
  const TraceTotals checkpoint_totals = writer.totals();
  for (std::uint64_t i = 20; i < 24; ++i) {
    add_signaling(i, static_cast<stats::SimTime>(60 * i), us, us);
    add_cdr(i, static_cast<stats::SimTime>(60 * i), us, es007);
  }
  add_xdr(20, 1200, us, us, "lost.gprs");
  add_dwell(20, 9, us);
  bytes.resize(checkpoint_offset);
  writer.restore(checkpoint_totals);

  // After the restore the dropped PLMNs come back in a different order, so a
  // dictionary surviving the restore would misnumber them.
  for (std::uint64_t i = 30; i < 35; ++i) {
    const auto t = static_cast<stats::SimTime>(60 * i);
    add_signaling(i, t, uk, i % 2 == 0 ? us : es07);
    add_cdr(i, t, es007, i % 2 == 0 ? us : uk);
    add_xdr(i, t, us, uk, i % 2 == 0 ? "310-410" : "m2m.example.gprs");
    add_dwell(i, 12, i % 2 == 0 ? us : uk);
  }
  writer.finish();

  std::istringstream in{bytes};
  CaptureSink capture;
  const auto stats = BinaryTraceReader{in}.replay(capture);
  EXPECT_EQ(stats.records, 13u + 11u + 10u + 11u);  // signaling, cdr, xdr, dwell
  EXPECT_EQ(stats.bad_fields, 2u);  // the two rows with invalid PLMNs

  EXPECT_EQ(bytes.size(), 1319u);
  EXPECT_EQ(fnv1a64(bytes), 0xccca48ff8753f196ull);
}

TEST(BinaryTraceGolden, SnapshotFileBytesArePinned) {
  namespace fs = std::filesystem;
  const auto path = (fs::temp_directory_path() / "wtr_test_golden_snapshot.bin").string();
  // 4099 bytes: not a multiple of 8, so a word-at-a-time CRC also runs its
  // bytewise tail.
  std::string payload(4099, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131u + (i >> 7)) & 0xFFu);
  }
  ckpt::write_snapshot_atomic(path, payload);
  std::ifstream file{path, std::ios::binary};
  const std::string bytes{std::istreambuf_iterator<char>(file),
                          std::istreambuf_iterator<char>()};
  file.close();
  EXPECT_EQ(ckpt::read_snapshot(path), payload);
  fs::remove(path);

  EXPECT_EQ(bytes.size(), 4139u);
  EXPECT_EQ(fnv1a64(bytes), 0xf51a14b9362f9c9eull);
}

}  // namespace
}  // namespace wtr::io
