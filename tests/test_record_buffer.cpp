// The sharded engine's per-shard record log (sim::RecordBuffer): one
// producer thread writes wakes while the consumer replays them, so these
// tests run both sides on real threads. The stress test is built for the
// TSan lane of scripts/check.sh: every record family, APN text longer than
// the small-string buffer, and consumer pauses that fill the log to its
// bound so chunks are released and reused many times over.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "sim/record_buffer.hpp"

namespace wtr {
namespace {

using sim::AgentIndex;
using sim::RecordBuffer;

struct SignalingRecord {
  signaling::SignalingTransaction txn;
  bool data_context = false;
};
struct DwellRecord {
  signaling::DeviceHash device = 0;
  std::int32_t day = 0;
  cellnet::Plmn visited_plmn{};
  cellnet::GeoPoint location{};
  double seconds = 0.0;
};
using Record = std::variant<SignalingRecord, records::Cdr, records::Xdr, DwellRecord>;

struct WakeSpec {
  AgentIndex agent = 0;
  stats::SimTime next_wake = RecordBuffer::kNoNextWake;
  std::vector<Record> records;
};

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// One line per record, every field, doubles bit-exact.
std::string describe(const signaling::SignalingTransaction& txn, bool data_context) {
  return "S " + std::to_string(txn.device) + " " + std::to_string(txn.time) + " " +
         std::to_string(txn.sim_plmn.key()) + " " + std::to_string(txn.visited_plmn.key()) +
         " " + std::to_string(static_cast<int>(txn.procedure)) + " " +
         std::to_string(static_cast<int>(txn.result)) + " " +
         std::to_string(static_cast<int>(txn.rat)) + " " + std::to_string(txn.sector) + " " +
         std::to_string(txn.tac) + (data_context ? " dc" : " -");
}
std::string describe(const records::Cdr& cdr) {
  return "C " + std::to_string(cdr.device) + " " + std::to_string(cdr.time) + " " +
         std::to_string(cdr.sim_plmn.key()) + " " + std::to_string(cdr.visited_plmn.key()) +
         " " + hex(cdr.duration_s) + " " + std::to_string(static_cast<int>(cdr.rat));
}
std::string describe(const records::Xdr& xdr) {
  return "X " + std::to_string(xdr.device) + " " + std::to_string(xdr.time) + " " +
         std::to_string(xdr.sim_plmn.key()) + " " + std::to_string(xdr.visited_plmn.key()) +
         " " + std::to_string(xdr.bytes_up) + " " + std::to_string(xdr.bytes_down) + " " +
         xdr.apn + " " + std::to_string(static_cast<int>(xdr.rat));
}
std::string describe(signaling::DeviceHash device, std::int32_t day,
                     cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                     double seconds) {
  return "D " + std::to_string(device) + " " + std::to_string(day) + " " +
         std::to_string(visited_plmn.key()) + " " + hex(location.lat) + " " +
         hex(location.lon) + " " + hex(seconds);
}
std::string describe(const Record& record) {
  return std::visit(
      [](const auto& r) -> std::string {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, SignalingRecord>) {
          return describe(r.txn, r.data_context);
        } else if constexpr (std::is_same_v<T, DwellRecord>) {
          return describe(r.device, r.day, r.visited_plmn, r.location, r.seconds);
        } else {
          return describe(r);
        }
      },
      record);
}

/// Deterministic random wakes: producer and consumer each own one with the
/// same seed, so the consumer knows what every replayed wake must hold.
class WakeGenerator {
 public:
  explicit WakeGenerator(std::uint64_t seed) : rng_(seed) {}

  WakeSpec next() {
    WakeSpec wake;
    wake.agent = static_cast<AgentIndex>(draw(1'000'000));
    wake.next_wake = draw(8) == 0 ? RecordBuffer::kNoNextWake
                                  : static_cast<stats::SimTime>(draw(2'000'000));
    const auto count = draw(13);  // 0..12 records
    for (std::uint64_t i = 0; i < count; ++i) wake.records.push_back(record());
    return wake;
  }

 private:
  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }
  cellnet::Plmn plmn() {
    return {static_cast<std::uint16_t>(100 + draw(900)),
            static_cast<std::uint16_t>(draw(100))};
  }
  double real() { return std::uniform_real_distribution<double>(-180.0, 180.0)(rng_); }

  Record record() {
    const auto device = rng_();
    const auto time = static_cast<stats::SimTime>(draw(2'000'000));
    switch (draw(4)) {
      case 0: {
        SignalingRecord r;
        r.txn.device = device;
        r.txn.time = time;
        r.txn.sim_plmn = plmn();
        r.txn.visited_plmn = plmn();
        r.txn.procedure = static_cast<signaling::Procedure>(draw(3));
        r.txn.result = static_cast<signaling::ResultCode>(draw(3));
        r.txn.rat = static_cast<cellnet::Rat>(draw(3));
        r.txn.sector = static_cast<cellnet::SectorId>(rng_());
        r.txn.tac = static_cast<cellnet::Tac>(rng_());
        r.data_context = draw(2) == 0;
        return r;
      }
      case 1: {
        records::Cdr r;
        r.device = device;
        r.time = time;
        r.sim_plmn = plmn();
        r.visited_plmn = plmn();
        r.duration_s = real();
        r.rat = static_cast<cellnet::Rat>(draw(3));
        return r;
      }
      case 2: {
        records::Xdr r;
        r.device = device;
        r.time = time;
        r.sim_plmn = plmn();
        r.visited_plmn = plmn();
        r.bytes_up = rng_();
        r.bytes_down = rng_();
        // 16..80 characters: always past the small-string buffer.
        r.apn.assign(16 + draw(65), 'a');
        for (auto& c : r.apn) c = static_cast<char>('a' + draw(26));
        r.rat = static_cast<cellnet::Rat>(draw(3));
        return r;
      }
      default: {
        DwellRecord r;
        r.device = device;
        r.day = static_cast<std::int32_t>(draw(400));
        r.visited_plmn = plmn();
        r.location = {real(), real()};
        r.seconds = real();
        return r;
      }
    }
  }

  std::mt19937_64 rng_;
};

void emit(RecordBuffer& log, const Record& record) {
  std::visit(
      [&log](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, SignalingRecord>) {
          log.on_signaling(r.txn, r.data_context);
        } else if constexpr (std::is_same_v<T, records::Cdr>) {
          log.on_cdr(r);
        } else if constexpr (std::is_same_v<T, records::Xdr>) {
          log.on_xdr(r);
        } else {
          log.on_dwell(r.device, r.day, r.visited_plmn, r.location, r.seconds);
        }
      },
      record);
}

/// Compares every replayed record with the one expected next.
class CheckingSink final : public sim::RecordSink {
 public:
  void expect(const std::vector<Record>& records) {
    expected_.clear();
    for (const auto& r : records) expected_.push_back(describe(r));
    seen_ = 0;
  }
  [[nodiscard]] bool complete() const { return seen_ == expected_.size(); }
  std::uint64_t mismatches = 0;

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override {
    check(describe(txn, data_context));
  }
  void on_cdr(const records::Cdr& cdr) override { check(describe(cdr)); }
  void on_xdr(const records::Xdr& xdr) override { check(describe(xdr)); }
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override {
    check(describe(device, day, visited_plmn, location, seconds));
  }

 private:
  void check(const std::string& got) {
    if (seen_ >= expected_.size() || expected_[seen_] != got) ++mismatches;
    ++seen_;
  }
  std::vector<std::string> expected_;
  std::size_t seen_ = 0;
};

void produce(RecordBuffer& log, std::uint64_t seed, int wakes) {
  WakeGenerator gen(seed);
  for (int i = 0; i < wakes; ++i) {
    const WakeSpec wake = gen.next();
    log.begin_wake(wake.agent);
    for (const auto& record : wake.records) emit(log, record);
    log.end_wake(wake.next_wake);
    if (log.over_bound() && !log.make_room()) return;
  }
  log.finish_window();
}

TEST(RecordBuffer, ConcurrentReplayMatchesProducedStream) {
  constexpr int kWakes = 200'000;
  constexpr std::uint64_t kSeed = 20190101;
  RecordBuffer log;
  std::thread producer([&log] { produce(log, kSeed, kWakes); });

  WakeGenerator expected(kSeed);
  CheckingSink sink;
  std::uint64_t records = 0;
  std::uint64_t bad_wakes = 0;
  std::mt19937 pauses(7);
  for (int i = 0; i < kWakes; ++i) {
    const WakeSpec wake = expected.next();
    ASSERT_TRUE(log.wait_for_wake()) << "wake " << i;
    if (log.peek_agent() != wake.agent) ++bad_wakes;
    sink.expect(wake.records);
    if (log.replay_wake(sink) != wake.next_wake || !sink.complete()) ++bad_wakes;
    records += wake.records.size();
    // Now and then stall long enough for the producer to fill the log.
    if (pauses() % 2048 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(log.wait_for_wake());  // window finished, nothing more
  producer.join();

  EXPECT_EQ(bad_wakes, 0u);
  EXPECT_EQ(sink.mismatches, 0u);
  EXPECT_FALSE(log.failed());
  EXPECT_EQ(log.published_wakes(), static_cast<std::uint64_t>(kWakes));
  EXPECT_EQ(log.consumed_wakes(), static_cast<std::uint64_t>(kWakes));
  // The bound held (a single wake may overrun it by one chunk), and the
  // stream was many times the chunks held, so chunks were reused.
  const std::size_t bound = (RecordBuffer::kLeadChunks + 2) * RecordBuffer::kChunkBytes;
  EXPECT_LE(log.resident_bytes(), bound);
  EXPECT_GT(records * sizeof(records::Cdr), 8 * log.resident_bytes());
}

TEST(RecordBuffer, ProducerFailureEndsConsumerWait) {
  RecordBuffer log;
  std::thread producer([&log] {
    WakeGenerator gen(3);
    for (int i = 0; i < 2; ++i) {
      const WakeSpec wake = gen.next();
      log.begin_wake(wake.agent);
      for (const auto& record : wake.records) emit(log, record);
      log.end_wake(wake.next_wake);
    }
    // A third wake is opened but never published: the shard failed inside
    // it. Let the consumer block first.
    log.begin_wake(99);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.close_failed();
  });
  WakeGenerator expected(3);
  CheckingSink sink;
  for (int i = 0; i < 2; ++i) {
    const WakeSpec wake = expected.next();
    ASSERT_TRUE(log.wait_for_wake());
    sink.expect(wake.records);
    EXPECT_EQ(log.replay_wake(sink), wake.next_wake);
  }
  EXPECT_FALSE(log.wait_for_wake());
  EXPECT_TRUE(log.failed());
  EXPECT_EQ(log.published_wakes(), 2u);
  EXPECT_EQ(sink.mismatches, 0u);
  producer.join();
}

TEST(RecordBuffer, AbandonReleasesProducerWaitingOnFullLog) {
  RecordBuffer log;
  bool released = true;
  std::thread producer([&log, &released] {
    WakeGenerator gen(5);
    for (;;) {
      const WakeSpec wake = gen.next();
      log.begin_wake(wake.agent);
      for (const auto& record : wake.records) emit(log, record);
      log.end_wake(wake.next_wake);
      if (log.over_bound()) {
        released = log.make_room();
        return;
      }
    }
  });
  // The consumer never reads, so the producer fills the log and waits.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log.abandon();
  producer.join();
  EXPECT_FALSE(released);
}

TEST(RecordBuffer, WindowsReopenAfterTheProducerFinishes) {
  RecordBuffer log;
  for (int window = 0; window < 3; ++window) {
    if (window > 0) log.open_window();
    std::thread producer([&log, window] {
      log.begin_wake(static_cast<AgentIndex>(window));
      log.end_wake(100 + window);
      log.finish_window();
    });
    ASSERT_TRUE(log.wait_for_wake());
    EXPECT_EQ(log.peek_agent(), static_cast<AgentIndex>(window));
    CheckingSink sink;
    EXPECT_EQ(log.replay_wake(sink), 100 + window);
    EXPECT_FALSE(log.wait_for_wake());
    EXPECT_FALSE(log.failed());
    producer.join();
  }
}

TEST(RecordBuffer, OversizedApnIsRejected) {
  RecordBuffer log;
  log.begin_wake(0);
  records::Xdr xdr;
  xdr.apn.assign(RecordBuffer::kChunkBytes, 'x');
  EXPECT_THROW(log.on_xdr(xdr), std::length_error);
}

}  // namespace
}  // namespace wtr
