// Round-trip tests: export records to CSV, replay them through a sink, and
// check they reconstruct identically — plus malformed-input tolerance.

#include "core/trace_replay.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "io/csv.hpp"
#include "records/cdr.hpp"
#include "records/xdr.hpp"

namespace wtr::core {
namespace {

class CaptureSink final : public sim::RecordSink {
 public:
  std::vector<signaling::SignalingTransaction> txns;
  std::vector<records::Cdr> cdrs;
  std::vector<records::Xdr> xdrs;

  void on_signaling(const signaling::SignalingTransaction& txn, bool) override {
    txns.push_back(txn);
  }
  void on_cdr(const records::Cdr& cdr) override { cdrs.push_back(cdr); }
  void on_xdr(const records::Xdr& xdr) override { xdrs.push_back(xdr); }
};

signaling::SignalingTransaction sample_txn() {
  signaling::SignalingTransaction txn;
  txn.device = 0xDEADBEEFCAFEULL;
  txn.time = 123'456;
  txn.sim_plmn = cellnet::Plmn{214, 7, 2};
  txn.visited_plmn = cellnet::Plmn{234, 1, 2};
  txn.procedure = signaling::Procedure::kUpdateLocation;
  txn.result = signaling::ResultCode::kRoamingNotAllowed;
  txn.rat = cellnet::Rat::kFourG;
  txn.sector = 77;
  txn.tac = 35'700'012;
  return txn;
}

TEST(TraceReplay, SignalingRoundTrip) {
  const auto original = sample_txn();
  std::ostringstream out;
  io::CsvWriter writer{out};
  writer.write_row(signaling::csv_header());
  writer.write_row(signaling::to_csv_fields(original));

  std::istringstream in{out.str()};
  CaptureSink sink;
  const auto stats = replay_signaling_csv(in, sink);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_TRUE(stats.clean());
  ASSERT_EQ(sink.txns.size(), 1u);
  const auto& replayed = sink.txns.front();
  EXPECT_EQ(replayed.device, original.device);
  EXPECT_EQ(replayed.time, original.time);
  EXPECT_EQ(replayed.sim_plmn, original.sim_plmn);
  EXPECT_EQ(replayed.visited_plmn, original.visited_plmn);
  EXPECT_EQ(replayed.procedure, original.procedure);
  EXPECT_EQ(replayed.result, original.result);
  EXPECT_EQ(replayed.rat, original.rat);
  EXPECT_EQ(replayed.sector, original.sector);
  EXPECT_EQ(replayed.tac, original.tac);
}

TEST(TraceReplay, CdrRoundTrip) {
  records::Cdr cdr;
  cdr.device = 42;
  cdr.time = 999;
  cdr.sim_plmn = cellnet::Plmn{204, 4, 2};
  cdr.visited_plmn = cellnet::Plmn{234, 1, 2};
  cdr.duration_s = 37.5;
  cdr.rat = cellnet::Rat::kThreeG;

  std::ostringstream out;
  io::CsvWriter writer{out};
  writer.write_row(records::cdr_csv_header());
  writer.write_row(records::to_csv_fields(cdr));

  std::istringstream in{out.str()};
  CaptureSink sink;
  const auto stats = replay_cdr_csv(in, sink);
  EXPECT_TRUE(stats.clean());
  ASSERT_EQ(sink.cdrs.size(), 1u);
  EXPECT_EQ(sink.cdrs.front().device, 42u);
  EXPECT_NEAR(sink.cdrs.front().duration_s, 37.5, 0.1);
  EXPECT_EQ(sink.cdrs.front().rat, cellnet::Rat::kThreeG);
}

TEST(TraceReplay, XdrRoundTripPreservesApn) {
  records::Xdr xdr;
  xdr.device = 7;
  xdr.time = 10;
  xdr.sim_plmn = cellnet::Plmn{204, 4, 2};
  xdr.visited_plmn = cellnet::Plmn{234, 1, 2};
  xdr.bytes_up = 100;
  xdr.bytes_down = 900;
  xdr.apn = cellnet::ApnId::intern("smhp.centricaplc.com.mnc004.mcc204.gprs");
  xdr.rat = cellnet::Rat::kTwoG;

  std::ostringstream out;
  io::CsvWriter writer{out};
  writer.write_row(records::xdr_csv_header());
  writer.write_row(records::to_csv_fields(xdr));

  std::istringstream in{out.str()};
  CaptureSink sink;
  replay_xdr_csv(in, sink);
  ASSERT_EQ(sink.xdrs.size(), 1u);
  EXPECT_EQ(sink.xdrs.front().apn, xdr.apn);
  EXPECT_EQ(sink.xdrs.front().bytes_total(), 1000u);
}

TEST(TraceReplay, MalformedRowsSkippedNotFatal) {
  std::istringstream in{
      "device,time,sim_plmn,visited_plmn,procedure,result,rat,sector,tac\n"
      "not,a,valid,row\n"
      "1,2,214-07,234-01,Authentication,OK,4G,0,35000000\n"
      "1,2,214-07,234-01,NoSuchProcedure,OK,4G,0,35000000\n"
      "\"unterminated,quote\n"};
  CaptureSink sink;
  const auto stats = replay_signaling_csv(in, sink);
  EXPECT_EQ(stats.rows, 4u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.malformed(), 3u);
  EXPECT_EQ(stats.bad_csv, 1u);     // the unterminated quote
  EXPECT_EQ(stats.bad_fields, 2u);  // wrong arity + unknown procedure
  EXPECT_FALSE(stats.clean());
}

TEST(TraceReplay, StrayQuoteRowsCountAsBadCsv) {
  std::istringstream in{
      "device,time,sim_plmn,visited_plmn,procedure,result,rat,sector,tac\n"
      "\"1\"x,2,214-07,234-01,Authentication,OK,4G,0,35000000\n"
      "1,2,214-\"07,234-01,Authentication,OK,4G,0,35000000\n"};
  CaptureSink sink;
  const auto stats = replay_signaling_csv(in, sink);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.bad_csv, 2u);
  EXPECT_EQ(stats.bad_fields, 0u);
}

TEST(TraceReplay, MissingHeaderStillParsesData) {
  std::istringstream in{"1,2,214-07,234-01,Authentication,OK,4G,0,35000000\n"};
  CaptureSink sink;
  const auto stats = replay_signaling_csv(in, sink);
  EXPECT_EQ(stats.delivered, 1u);
}

TEST(TraceReplay, EmptyStream) {
  std::istringstream in{""};
  CaptureSink sink;
  const auto stats = replay_cdr_csv(in, sink);
  EXPECT_EQ(stats.rows, 0u);
  EXPECT_TRUE(stats.clean());
}

TEST(CsvNumericParsers, StrictWholeString) {
  EXPECT_EQ(io::parse_u64("123"), 123u);
  EXPECT_FALSE(io::parse_u64("123x").has_value());
  EXPECT_FALSE(io::parse_u64("-1").has_value());
  EXPECT_FALSE(io::parse_u64("").has_value());
  EXPECT_EQ(io::parse_i64("-42"), -42);
  EXPECT_EQ(io::parse_double("3.5"), 3.5);
  EXPECT_FALSE(io::parse_double("3.5 ").has_value());
}

TEST(EnumRoundTrips, AllValuesSurviveNameCycle) {
  for (int i = 0; i < signaling::kProcedureCount; ++i) {
    const auto procedure = static_cast<signaling::Procedure>(i);
    EXPECT_EQ(signaling::procedure_from_name(signaling::procedure_name(procedure)),
              procedure);
  }
  for (int i = 0; i < signaling::kResultCodeCount; ++i) {
    const auto code = static_cast<signaling::ResultCode>(i);
    EXPECT_EQ(signaling::result_code_from_name(signaling::result_code_name(code)), code);
  }
  for (int i = 0; i < cellnet::kRatCount; ++i) {
    const auto rat = static_cast<cellnet::Rat>(i);
    EXPECT_EQ(cellnet::rat_from_name(cellnet::rat_name(rat)), rat);
  }
  EXPECT_FALSE(signaling::procedure_from_name("Bogus").has_value());
  EXPECT_FALSE(cellnet::rat_from_name("5G").has_value());
}

}  // namespace
}  // namespace wtr::core
