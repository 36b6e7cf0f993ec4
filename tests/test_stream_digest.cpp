// sim::StreamDigest, the record-stream digest behind every byte-identity
// check: each field of each record family reaches the hash (doubles to the
// last bit, PLMNs with their MNC width: 214-07 is not 214-007), equal
// streams digest equally, a digest saved mid-stream and restored continues
// exactly, and counts are kept per family.

#include "sim/stream_digest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/binio.hpp"

namespace wtr::sim {
namespace {

struct Dwell {
  signaling::DeviceHash device = 0;
  std::int32_t day = 0;
  cellnet::Plmn visited_plmn{};
  cellnet::GeoPoint location{};
  double seconds = 0.0;
};

/// One record of each family.
struct Records {
  signaling::SignalingTransaction txn;
  bool data_context = true;
  records::Cdr cdr;
  records::Xdr xdr;
  Dwell dwell;
};

Records base_records() {
  const cellnet::Plmn home{214, 7};  // 214-07
  const cellnet::Plmn visited{234, 15};
  Records r;
  r.txn.device = 0x1234'5678'9abc'def0ull;
  r.txn.time = 86'400 + 17;
  r.txn.sim_plmn = home;
  r.txn.visited_plmn = visited;
  r.txn.procedure = signaling::Procedure::kUpdateLocation;
  r.txn.result = signaling::ResultCode::kOk;
  r.txn.rat = cellnet::Rat::kThreeG;
  r.txn.sector = 4242;
  r.txn.tac = 35'693'803;
  r.cdr.device = r.txn.device;
  r.cdr.time = r.txn.time + 5;
  r.cdr.sim_plmn = home;
  r.cdr.visited_plmn = visited;
  r.cdr.duration_s = 73.25;
  r.cdr.rat = cellnet::Rat::kTwoG;
  r.xdr.device = r.txn.device;
  r.xdr.time = r.txn.time + 9;
  r.xdr.sim_plmn = home;
  r.xdr.visited_plmn = visited;
  r.xdr.bytes_up = 1'500;
  r.xdr.bytes_down = 64'000;
  r.xdr.apn = "m2m.example.mnc007.mcc214.gprs";
  r.xdr.rat = cellnet::Rat::kFourG;
  r.dwell.device = r.txn.device;
  r.dwell.day = 1;
  r.dwell.visited_plmn = visited;
  r.dwell.location = {51.5072, -0.1276};
  r.dwell.seconds = 3'600.5;
  return r;
}

void feed(StreamDigest& digest, const Records& r) {
  digest.on_signaling(r.txn, r.data_context);
  digest.on_cdr(r.cdr);
  digest.on_xdr(r.xdr);
  digest.on_dwell(r.dwell.device, r.dwell.day, r.dwell.visited_plmn, r.dwell.location,
                  r.dwell.seconds);
}

StreamDigest digest_of(const Records& r) {
  StreamDigest digest;
  feed(digest, r);
  return digest;
}

double next_ulp(double v) {
  return std::nextafter(v, std::numeric_limits<double>::infinity());
}

/// Same operator, three-digit MNC: 214-07 becomes 214-007.
cellnet::Plmn widen_mnc(cellnet::Plmn plmn) { return {plmn.mcc(), plmn.mnc(), 3}; }

TEST(StreamDigest, EverySingleFieldChangesTheHash) {
  const Records base = base_records();
  ASSERT_EQ(base.txn.sim_plmn.to_string(), "214-07");
  ASSERT_EQ(widen_mnc(base.txn.sim_plmn).to_string(), "214-007");
  const std::uint64_t base_hash = digest_of(base).hash();
  const std::vector<std::pair<std::string, std::function<void(Records&)>>> edits = {
      {"signaling.device", [](Records& r) { r.txn.device ^= 1; }},
      {"signaling.time", [](Records& r) { ++r.txn.time; }},
      {"signaling.sim_plmn",
       [](Records& r) { r.txn.sim_plmn = widen_mnc(r.txn.sim_plmn); }},
      {"signaling.visited_plmn",
       [](Records& r) { r.txn.visited_plmn = widen_mnc(r.txn.visited_plmn); }},
      {"signaling.procedure",
       [](Records& r) { r.txn.procedure = signaling::Procedure::kAuthentication; }},
      {"signaling.result",
       [](Records& r) { r.txn.result = signaling::ResultCode::kCongestion; }},
      {"signaling.rat", [](Records& r) { r.txn.rat = cellnet::Rat::kFourG; }},
      {"signaling.sector", [](Records& r) { ++r.txn.sector; }},
      {"signaling.tac", [](Records& r) { ++r.txn.tac; }},
      {"signaling.data_context", [](Records& r) { r.data_context = false; }},
      {"cdr.device", [](Records& r) { r.cdr.device ^= 1; }},
      {"cdr.time", [](Records& r) { ++r.cdr.time; }},
      {"cdr.sim_plmn", [](Records& r) { r.cdr.sim_plmn = widen_mnc(r.cdr.sim_plmn); }},
      {"cdr.visited_plmn",
       [](Records& r) { r.cdr.visited_plmn = widen_mnc(r.cdr.visited_plmn); }},
      {"cdr.duration_s (one ulp)",
       [](Records& r) { r.cdr.duration_s = next_ulp(r.cdr.duration_s); }},
      {"cdr.rat", [](Records& r) { r.cdr.rat = cellnet::Rat::kThreeG; }},
      {"xdr.device", [](Records& r) { r.xdr.device ^= 1; }},
      {"xdr.time", [](Records& r) { ++r.xdr.time; }},
      {"xdr.sim_plmn", [](Records& r) { r.xdr.sim_plmn = widen_mnc(r.xdr.sim_plmn); }},
      {"xdr.visited_plmn",
       [](Records& r) { r.xdr.visited_plmn = widen_mnc(r.xdr.visited_plmn); }},
      {"xdr.bytes_up", [](Records& r) { ++r.xdr.bytes_up; }},
      {"xdr.bytes_down", [](Records& r) { ++r.xdr.bytes_down; }},
      {"xdr.apn (one byte)", [](Records& r) { r.xdr.apn[4] = 'M'; }},
      {"xdr.rat", [](Records& r) { r.xdr.rat = cellnet::Rat::kNbIot; }},
      {"dwell.device", [](Records& r) { r.dwell.device ^= 1; }},
      {"dwell.day", [](Records& r) { ++r.dwell.day; }},
      {"dwell.visited_plmn",
       [](Records& r) { r.dwell.visited_plmn = widen_mnc(r.dwell.visited_plmn); }},
      {"dwell.lat (one ulp)",
       [](Records& r) { r.dwell.location.lat = next_ulp(r.dwell.location.lat); }},
      {"dwell.lon (one ulp)",
       [](Records& r) { r.dwell.location.lon = next_ulp(r.dwell.location.lon); }},
      {"dwell.seconds (one ulp)",
       [](Records& r) { r.dwell.seconds = next_ulp(r.dwell.seconds); }},
  };
  for (const auto& [field, edit] : edits) {
    Records changed = base;
    edit(changed);
    const StreamDigest digest = digest_of(changed);
    EXPECT_NE(digest.hash(), base_hash) << field;
    EXPECT_EQ(digest.counts(), digest_of(base).counts()) << field;
  }
}

/// A stream of `n` rounds of all four families, every field varying.
std::vector<Records> stream_of(int n) {
  std::vector<Records> stream;
  Records r = base_records();
  for (int i = 0; i < n; ++i) {
    r.txn.time += 37;
    r.txn.result =
        i % 5 == 0 ? signaling::ResultCode::kCongestion : signaling::ResultCode::kOk;
    r.data_context = i % 2 == 0;
    r.cdr.duration_s = 0.1 * i + 1.0 / 3.0;
    r.xdr.bytes_down += static_cast<std::uint64_t>(i) * 7;
    r.xdr.apn = "iot" + std::to_string(i % 4) + ".example";
    r.dwell.seconds = 60.0 * i + 0.25;
    r.dwell.day = i / 10;
    stream.push_back(r);
  }
  return stream;
}

TEST(StreamDigest, EqualStreamsDigestEqually) {
  const auto stream = stream_of(40);
  StreamDigest a;
  StreamDigest b;
  for (const auto& r : stream) feed(a, r);
  for (const auto& r : stream) feed(b, r);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.counts(), b.counts());

  // Order is part of the stream: swapping two records changes the hash.
  StreamDigest swapped;
  feed(swapped, stream[1]);
  feed(swapped, stream[0]);
  for (std::size_t i = 2; i < stream.size(); ++i) feed(swapped, stream[i]);
  EXPECT_NE(swapped.hash(), a.hash());
  EXPECT_EQ(swapped.counts(), a.counts());

  // Printing names the hash and every count.
  std::ostringstream out;
  out << a;
  EXPECT_NE(out.str().find("hash="), std::string::npos);
  EXPECT_NE(out.str().find(" dwell=40"), std::string::npos);
}

TEST(StreamDigest, RestoredMidStreamEqualsUninterrupted) {
  const auto stream = stream_of(30);
  StreamDigest uninterrupted;
  for (const auto& r : stream) feed(uninterrupted, r);

  StreamDigest first_half;
  for (std::size_t i = 0; i < 13; ++i) feed(first_half, stream[i]);
  util::BinWriter out;
  first_half.save_state(out);

  StreamDigest resumed;
  util::BinReader in{out.bytes()};
  resumed.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(resumed, first_half);
  for (std::size_t i = 13; i < stream.size(); ++i) feed(resumed, stream[i]);
  EXPECT_EQ(resumed, uninterrupted);
}

TEST(StreamDigest, CountsArePerFamily) {
  const Records r = base_records();
  StreamDigest digest;
  for (int i = 0; i < 3; ++i) digest.on_signaling(r.txn, true);
  for (int i = 0; i < 2; ++i) digest.on_cdr(r.cdr);
  digest.on_xdr(r.xdr);
  for (int i = 0; i < 4; ++i) {
    digest.on_dwell(r.dwell.device, r.dwell.day, r.dwell.visited_plmn, r.dwell.location,
                    r.dwell.seconds);
  }
  EXPECT_EQ(digest.counts().signaling, 3u);
  EXPECT_EQ(digest.counts().cdr, 2u);
  EXPECT_EQ(digest.counts().xdr, 1u);
  EXPECT_EQ(digest.counts().dwell, 4u);
  EXPECT_EQ(digest.records(), 10u);
  EXPECT_EQ(StreamDigest{}.records(), 0u);
}

}  // namespace
}  // namespace wtr::sim
