#include "core/catalog_builder.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <variant>

// Counting global allocator: this binary's tests can assert how often a
// code path reaches the heap. It is its own executable, so no other suite
// sees the replacement.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

// Every non-aligned form, so each allocation and its release meet in the
// same allocator: under ASan a form left out comes from the sanitizer's
// allocator, and freeing it here is reported as a mismatch. The deletes
// stay out of line: inlined into a caller, GCC pairs the std::free with the
// caller's operator new and warns of a mismatch.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace wtr::core {
namespace {

const cellnet::Plmn kObserver{234, 10, 2};
const cellnet::Plmn kMvno{235, 50, 2};
const cellnet::Plmn kForeign{204, 4, 2};

CatalogAccumulator make_accumulator() {
  return CatalogAccumulator{{kObserver, {kObserver, kMvno}}};
}

signaling::SignalingTransaction txn(signaling::DeviceHash device, stats::SimTime time,
                                    cellnet::Plmn sim, cellnet::Plmn visited,
                                    signaling::ResultCode result = signaling::ResultCode::kOk,
                                    cellnet::Rat rat = cellnet::Rat::kTwoG) {
  signaling::SignalingTransaction t;
  t.device = device;
  t.time = time;
  t.sim_plmn = sim;
  t.visited_plmn = visited;
  t.procedure = signaling::Procedure::kAuthentication;
  t.result = result;
  t.rat = rat;
  t.tac = 35'000'001;
  return t;
}

TEST(CatalogAccumulator, RadioEventsRequireObserverNetwork) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(1, 10, kForeign, kObserver), true);   // inbound: kept
  acc.on_signaling(txn(2, 10, kObserver, kForeign), true);   // outbound radio: dropped
  EXPECT_EQ(acc.accepted_records(), 1u);
  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.records().front().device, 1u);
}

TEST(CatalogAccumulator, CdrXdrVisibleForFamilyAbroad) {
  auto acc = make_accumulator();
  records::Cdr cdr;
  cdr.device = 3;
  cdr.time = 20;
  cdr.sim_plmn = kMvno;      // family SIM
  cdr.visited_plmn = kForeign;  // abroad
  cdr.duration_s = 30.0;
  cdr.rat = cellnet::Rat::kThreeG;
  acc.on_cdr(cdr);

  records::Cdr foreign_cdr = cdr;
  foreign_cdr.device = 4;
  foreign_cdr.sim_plmn = kForeign;  // foreign SIM abroad: invisible
  acc.on_cdr(foreign_cdr);

  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.records().front().device, 3u);
  EXPECT_EQ(catalog.records().front().calls, 1u);
  EXPECT_TRUE(catalog.records().front().voice_rats.has(cellnet::Rat::kThreeG));
}

TEST(CatalogAccumulator, XdrAggregatesBytesAndApns) {
  auto acc = make_accumulator();
  records::Xdr xdr;
  xdr.device = 5;
  xdr.time = 100;
  xdr.sim_plmn = kForeign;
  xdr.visited_plmn = kObserver;
  xdr.bytes_up = 10;
  xdr.bytes_down = 90;
  xdr.apn = cellnet::ApnId::intern("smhp.centricaplc.com.mnc004.mcc204.gprs");
  xdr.rat = cellnet::Rat::kTwoG;
  acc.on_xdr(xdr);
  acc.on_xdr(xdr);  // same APN again: bytes add, APN deduplicates

  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  const auto& record = catalog.records().front();
  EXPECT_EQ(record.bytes, 200u);
  ASSERT_EQ(record.apns.size(), 1u);
  EXPECT_TRUE(record.data_rats.has(cellnet::Rat::kTwoG));
}

TEST(CatalogAccumulator, FailedEventsDontSetRadioFlags) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(6, 10, kForeign, kObserver,
                       signaling::ResultCode::kRoamingNotAllowed, cellnet::Rat::kFourG),
                   true);
  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.records().front().failed_events, 1u);
  EXPECT_TRUE(catalog.records().front().radio_flags.none());
}

TEST(CatalogAccumulator, SplitsByDay) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(7, 10, kForeign, kObserver), true);
  acc.on_signaling(txn(7, stats::kSecondsPerDay + 10, kForeign, kObserver), true);
  const auto catalog = acc.finalize();
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.records()[0].day, 0);
  EXPECT_EQ(catalog.records()[1].day, 1);
}

TEST(CatalogAccumulator, DwellOnlyRecordsAreDropped) {
  auto acc = make_accumulator();
  acc.on_dwell(8, 0, kObserver, cellnet::GeoPoint{51.5, 0.0}, 600.0);
  EXPECT_EQ(acc.finalize().size(), 0u);
}

TEST(CatalogAccumulator, DwellAttachesMobilityMetrics) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(9, 10, kForeign, kObserver), true);
  acc.on_dwell(9, 0, kObserver, cellnet::GeoPoint{51.5, 0.0}, 600.0);
  acc.on_dwell(9, 0, kObserver, cellnet::GeoPoint{51.52, 0.0}, 600.0);
  // Foreign-network dwell is invisible to the observer.
  acc.on_dwell(9, 0, kForeign, cellnet::GeoPoint{40.0, 0.0}, 600.0);
  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  const auto& record = catalog.records().front();
  ASSERT_TRUE(record.has_position);
  EXPECT_GT(record.gyration_m, 500.0);
  EXPECT_LT(record.gyration_m, 2'500.0);
  EXPECT_NEAR(record.centroid.lat, 51.51, 0.01);
}

TEST(CatalogAccumulator, FinalizeOrdersDeterministically) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(20, stats::kSecondsPerDay + 1, kForeign, kObserver), true);
  acc.on_signaling(txn(10, 5, kForeign, kObserver), true);
  acc.on_signaling(txn(20, 5, kForeign, kObserver), true);
  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.records()[0].device, 10u);
  EXPECT_EQ(catalog.records()[1].device, 20u);
  EXPECT_EQ(catalog.records()[1].day, 0);
  EXPECT_EQ(catalog.records()[2].day, 1);
}

records::Xdr xdr(signaling::DeviceHash device, stats::SimTime time, cellnet::Plmn sim,
                 cellnet::Plmn visited, std::string_view apn) {
  records::Xdr x;
  x.device = device;
  x.time = time;
  x.sim_plmn = sim;
  x.visited_plmn = visited;
  x.bytes_up = 100;
  x.apn = cellnet::ApnId::intern(apn);
  x.rat = cellnet::Rat::kFourG;
  return x;
}

TEST(CatalogAccumulator, OverflowKeepsEveryVisitedPlmnAndApnOnce) {
  // More distinct visited networks and APNs than a row holds inline, with
  // repeats and an empty APN mixed in. A family SIM abroad makes every
  // visited network visible.
  const std::vector<cellnet::Plmn> visited{{204, 8}, {262, 1}, {208, 10}, {204, 4},
                                           {214, 7}, {262, 1}, {208, 10}, {204, 8}};
  const std::vector<std::string> apns{"zeta.example", "",  "alpha.example",
                                      "m2m.fleet-telemetry.example.io", "alpha.example",
                                      "beta",         "",  "zeta.example", "gamma.example"};
  auto acc = make_accumulator();
  for (std::size_t i = 0; i < apns.size(); ++i) {
    acc.on_xdr(xdr(40, 100 + static_cast<stats::SimTime>(i), kMvno,
                   visited[i % visited.size()], apns[i]));
  }
  // Day 1 adds one network and one APN that day 0 did not see.
  acc.on_xdr(xdr(40, stats::kSecondsPerDay + 5, kMvno, {228, 1}, "delta.example"));
  acc.on_xdr(xdr(40, stats::kSecondsPerDay + 6, kMvno, {204, 8}, "beta"));

  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 2u);
  const auto& day0 = catalog.records()[0];
  EXPECT_EQ(day0.visited_plmns, (std::vector<cellnet::Plmn>{
                                    {204, 4}, {204, 8}, {208, 10}, {214, 7}, {262, 1}}));
  EXPECT_EQ(day0.apns, (std::vector<std::string>{"alpha.example", "beta", "gamma.example",
                                                 "m2m.fleet-telemetry.example.io",
                                                 "zeta.example"}));
  const auto& day1 = catalog.records()[1];
  EXPECT_EQ(day1.visited_plmns, (std::vector<cellnet::Plmn>{{204, 8}, {228, 1}}));
  EXPECT_EQ(day1.apns, (std::vector<std::string>{"beta", "delta.example"}));

  const auto summaries = summarize(catalog);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].visited_plmns,
            (std::vector<cellnet::Plmn>{{204, 4}, {204, 8}, {208, 10}, {214, 7}, {228, 1},
                                        {262, 1}}));
  EXPECT_EQ(summaries[0].apns,
            (std::vector<std::string>{"alpha.example", "beta", "delta.example",
                                      "gamma.example", "m2m.fleet-telemetry.example.io",
                                      "zeta.example"}));
}

void expect_same_record(const records::DailyDeviceRecord& a,
                        const records::DailyDeviceRecord& b) {
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.sim_plmn, b.sim_plmn);
  EXPECT_EQ(a.visited_plmns, b.visited_plmns);
  EXPECT_EQ(a.signaling_events, b.signaling_events);
  EXPECT_EQ(a.failed_events, b.failed_events);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.call_seconds, b.call_seconds);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.apns, b.apns);
  EXPECT_EQ(a.tac, b.tac);
  EXPECT_EQ(a.radio_flags, b.radio_flags);
  EXPECT_EQ(a.data_rats, b.data_rats);
  EXPECT_EQ(a.voice_rats, b.voice_rats);
  EXPECT_EQ(a.centroid, b.centroid);
  EXPECT_EQ(a.gyration_m, b.gyration_m);
  EXPECT_EQ(a.has_position, b.has_position);
}

void expect_same_summary(const DeviceSummary& a, const DeviceSummary& b) {
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.sim_plmn, b.sim_plmn);
  EXPECT_EQ(a.visited_plmns, b.visited_plmns);
  EXPECT_EQ(a.apns, b.apns);
  EXPECT_EQ(a.tac, b.tac);
  EXPECT_EQ(a.active_days, b.active_days);
  EXPECT_EQ(a.first_day, b.first_day);
  EXPECT_EQ(a.last_day, b.last_day);
  EXPECT_EQ(a.signaling_events, b.signaling_events);
  EXPECT_EQ(a.failed_events, b.failed_events);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.call_seconds, b.call_seconds);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.radio_flags, b.radio_flags);
  EXPECT_EQ(a.data_rats, b.data_rats);
  EXPECT_EQ(a.voice_rats, b.voice_rats);
  EXPECT_EQ(a.mean_daily_gyration_m, b.mean_daily_gyration_m);
  EXPECT_EQ(a.has_position, b.has_position);
}

struct Dwell {
  signaling::DeviceHash device;
  std::int32_t day;
  cellnet::GeoPoint location;
  double seconds;
};
using AnyRecord = std::variant<signaling::SignalingTransaction, records::Cdr, records::Xdr, Dwell>;

void feed(CatalogAccumulator& acc, const AnyRecord& record) {
  if (const auto* t = std::get_if<signaling::SignalingTransaction>(&record)) {
    acc.on_signaling(*t, true);
  } else if (const auto* c = std::get_if<records::Cdr>(&record)) {
    acc.on_cdr(*c);
  } else if (const auto* x = std::get_if<records::Xdr>(&record)) {
    acc.on_xdr(*x);
  } else {
    const auto& d = std::get<Dwell>(record);
    acc.on_dwell(d.device, d.day, kObserver, d.location, d.seconds);
  }
}

/// Wakes of several devices over three days, each wake's records back to
/// back, with sums whose floating-point value depends on the order added.
std::vector<AnyRecord> interleaved_stream() {
  std::vector<AnyRecord> stream;
  for (int step = 0; step < 60; ++step) {
    const signaling::DeviceHash device = 50 + static_cast<signaling::DeviceHash>(step % 7);
    const std::int32_t day = (step / 7) % 3;
    const stats::SimTime time = day * stats::kSecondsPerDay + 60 * step;
    const cellnet::Plmn sim = device % 2 == 0 ? kMvno : kForeign;
    auto t = txn(device, time, sim, kObserver,
                 step % 5 == 0 ? signaling::ResultCode::kNetworkFailure
                               : signaling::ResultCode::kOk,
                 step % 3 == 0 ? cellnet::Rat::kThreeG : cellnet::Rat::kTwoG);
    t.tac = 35'000'000 + static_cast<cellnet::Tac>(step);
    stream.emplace_back(t);
    records::Cdr cdr;
    cdr.device = device;
    cdr.time = time + 1;
    cdr.sim_plmn = sim;
    cdr.visited_plmn = step % 4 == 0 && sim == kMvno ? kForeign : kObserver;
    cdr.duration_s = 0.1 * (step + 1);
    cdr.rat = cellnet::Rat::kThreeG;
    stream.emplace_back(cdr);
    stream.emplace_back(xdr(device, time + 2, sim, kObserver,
                            step % 2 == 0 ? "a.example" : "b.example"));
    stream.emplace_back(Dwell{device, day, {51.5 + 0.001 * step, -0.1 * step}, 1.0 / (step + 3)});
  }
  return stream;
}

TEST(CatalogAccumulator, FamilyGroupedReplayOrderGivesTheSameCatalog) {
  // A WTRTRC1 replay delivers records family by family, each family in its
  // own order. Dwell goes first here, so dwell opens every row before any
  // SIM-bearing record reaches it.
  const auto stream = interleaved_stream();
  auto live = make_accumulator();
  for (const auto& record : stream) feed(live, record);
  auto grouped = make_accumulator();
  for (std::size_t family = std::variant_size_v<AnyRecord>; family-- > 0;) {
    for (const auto& record : stream) {
      if (record.index() == family) feed(grouped, record);
    }
  }
  EXPECT_EQ(live.accepted_records(), grouped.accepted_records());
  const auto a = live.finalize();
  const auto b = grouped.finalize();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 21u);
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_record(a.records()[i], b.records()[i]);
}

TEST(CatalogAccumulator, OpeningPartialsDoesNotAllocatePerPartial) {
  constexpr int kPartials = 10'000;
  auto acc = make_accumulator();
  auto signal = txn(0, 0, kForeign, kObserver);
  auto data = xdr(0, 0, kForeign, kObserver, "m2m.fleet-telemetry.example.io");
  ASSERT_EQ(data.apn.text().size(), 30u);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kPartials; ++i) {
    signal.device = data.device = 1'000 + static_cast<signaling::DeviceHash>(i / 4);
    signal.time = data.time = (i % 4) * stats::kSecondsPerDay + 10;
    acc.on_signaling(signal, true);
    acc.on_xdr(data);
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_LT(allocations, kPartials / 100u);
  EXPECT_EQ(acc.finalize().size(), static_cast<std::size_t>(kPartials));
}

TEST(DevicesCatalog, IndexAndSpan) {
  records::DevicesCatalog catalog;
  records::DailyDeviceRecord r1;
  r1.device = 1;
  r1.day = 3;
  records::DailyDeviceRecord r2;
  r2.device = 1;
  r2.day = 1;
  records::DailyDeviceRecord r3;
  r3.device = 2;
  r3.day = 2;
  catalog.add(r1);
  catalog.add(r2);
  catalog.add(r3);
  EXPECT_EQ(catalog.distinct_devices(), 2u);
  EXPECT_EQ(catalog.day_span(), (std::pair<std::int32_t, std::int32_t>{1, 3}));
}

TEST(DailyDeviceRecord, RoamedInternationally) {
  records::DailyDeviceRecord record;
  record.sim_plmn = kForeign;
  record.visited_plmns = {kObserver};
  EXPECT_TRUE(record.roamed_internationally());
  record.sim_plmn = kObserver;
  EXPECT_FALSE(record.roamed_internationally());
}

TEST(Summarize, RollsUpAcrossDays) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(30, 10, kForeign, kObserver), true);
  acc.on_signaling(txn(30, stats::kSecondsPerDay + 10, kForeign, kObserver,
                       signaling::ResultCode::kNetworkFailure),
                   true);
  records::Xdr xdr;
  xdr.device = 30;
  xdr.time = 20;
  xdr.sim_plmn = kForeign;
  xdr.visited_plmn = kObserver;
  xdr.bytes_up = 50;
  xdr.apn = cellnet::ApnId::intern("a.b");
  acc.on_xdr(xdr);

  const auto catalog = acc.finalize();
  const auto summaries = summarize(catalog);
  ASSERT_EQ(summaries.size(), 1u);
  const auto& s = summaries.front();
  EXPECT_EQ(s.device, 30u);
  EXPECT_EQ(s.active_days, 2u);
  EXPECT_EQ(s.first_day, 0);
  EXPECT_EQ(s.last_day, 1);
  EXPECT_EQ(s.signaling_events, 2u);
  EXPECT_EQ(s.failed_events, 1u);
  EXPECT_EQ(s.bytes, 50u);
  EXPECT_DOUBLE_EQ(s.signaling_per_day(), 1.0);
  EXPECT_TRUE(s.attached_to(kObserver));
  EXPECT_FALSE(s.attached_to(kForeign));
  EXPECT_EQ(s.tac, 35'000'001u);
}

TEST(Summarize, UnsortedCatalogRollsUpLikeTheSortedOne) {
  auto acc = make_accumulator();
  for (const auto& record : interleaved_stream()) feed(acc, record);
  const auto sorted = acc.finalize();
  // The same rows with devices in reverse order, each device's days
  // ascending.
  records::DevicesCatalog reversed;
  const auto& rows = sorted.records();
  for (std::size_t end = rows.size(); end > 0;) {
    std::size_t begin = end - 1;
    while (begin > 0 && rows[begin - 1].device == rows[end - 1].device) --begin;
    for (std::size_t i = begin; i < end; ++i) reversed.add(rows[i]);
    end = begin;
  }
  ASSERT_NE(reversed.records().front().device, sorted.records().front().device);

  const auto expected = summarize(sorted);
  const auto got = summarize(reversed);
  ASSERT_EQ(got.size(), expected.size());
  ASSERT_EQ(got.size(), 7u);
  for (std::size_t i = 0; i < got.size(); ++i) expect_same_summary(got[i], expected[i]);
}

TEST(Summarize, EmptyCatalog) {
  records::DevicesCatalog catalog;
  EXPECT_TRUE(summarize(catalog).empty());
  EXPECT_EQ(catalog.day_span(), (std::pair<std::int32_t, std::int32_t>{0, -1}));
}

}  // namespace
}  // namespace wtr::core
