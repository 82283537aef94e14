// Windowed time-series telemetry: epochs as deltas of the registry's
// cumulative latency histograms, counter deltas, gauge snapshots, ring
// rotation, exposition, and the flight-bundle embed. close_epoch() drives
// the ring deterministically; the RuntimeSampler cases run the runtime's
// one obs sampler thread with the timeseries alone and beside the
// watchdog.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/prompt_scheduler.hpp"
#include "core/runtime.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace icilk::obs {
namespace {

using namespace std::chrono_literals;

/// Completes one request of `latency_ns` at `level` in the registry, the
/// way Runtime::close_request does.
void record(MetricsRegistry& m, int level, std::uint64_t latency_ns) {
  ReqContext rc;
  rc.priority = static_cast<std::uint16_t>(level);
  m.record_request(rc, latency_ns);
}

TimeSeries::Config with_registry(MetricsRegistry& m) {
  TimeSeries::Config tc;
  tc.metrics = &m;
  return tc;
}

TEST(TimeSeries, RecordThenCloseDigestsIntoLatest) {
  MetricsRegistry m;
  TimeSeries::Config tc = with_registry(m);
  tc.scheduler = "test";
  TimeSeries ts(tc);

  for (int i = 1; i <= 100; ++i) {
    record(m, 1, static_cast<std::uint64_t>(i) * 1000);
  }
  record(m, 3, 5'000'000);
  ts.close_epoch(WdSample{});

  const TsEpoch e = ts.latest();
  EXPECT_EQ(e.seq, 0u);
  EXPECT_GT(e.t_ns, 0u);
  EXPECT_EQ(e.lat[1].count, 100u);
  // 1..100us uniform: p50 near 50us, p99 near 99us (log-linear bucket
  // edges overshoot by <= ~1.6%).
  EXPECT_NEAR(static_cast<double>(e.lat[1].p50_ns), 50'000.0, 3'000.0);
  EXPECT_NEAR(static_cast<double>(e.lat[1].p99_ns), 99'000.0, 4'000.0);
  // This epoch holds the running maximum, so max_ns is exact.
  EXPECT_EQ(e.lat[1].max_ns, 100'000u);
  EXPECT_EQ(e.lat[3].count, 1u);
  EXPECT_EQ(e.lat[3].max_ns, 5'000'000u);
  EXPECT_EQ(e.lat[0].count, 0u);

  // The next epoch is a delta: nothing completed since the close.
  ts.close_epoch(WdSample{});
  EXPECT_EQ(ts.latest().lat[1].count, 0u);
  EXPECT_EQ(ts.latest().seq, 1u);
}

TEST(TimeSeries, PercentilesMatchAFreshHistogramOfTheWindow) {
  MetricsRegistry m;
  TimeSeries ts(with_registry(m));
  for (int i = 0; i < 500; ++i) record(m, 2, 900'000);  // older traffic
  ts.close_epoch(WdSample{});

  load::Histogram window;
  for (int i = 1; i <= 300; ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(i) * 777;
    record(m, 2, v);
    window.record(v);
  }
  ts.close_epoch(WdSample{});
  const TsEpoch::LevelLat& l = ts.latest().lat[2];
  EXPECT_EQ(l.count, 300u);
  EXPECT_EQ(l.p50_ns, window.percentile_ns(0.50));
  EXPECT_EQ(l.p99_ns, window.percentile_ns(0.99));
}

TEST(TimeSeries, MaxIsTheBucketEdgeWhenAnEarlierEpochHeldTheMax) {
  MetricsRegistry m;
  TimeSeries ts(with_registry(m));
  record(m, 1, 1'000'000);
  ts.close_epoch(WdSample{});
  EXPECT_EQ(ts.latest().lat[1].max_ns, 1'000'000u);

  record(m, 1, 10'000);
  ts.close_epoch(WdSample{});
  // min(upper edge of the 10us bucket, cumulative max of 1ms).
  const std::uint64_t max = ts.latest().lat[1].max_ns;
  EXPECT_GE(max, 10'000u);
  EXPECT_LE(max, 10'160u);
}

TEST(TimeSeries, RegistryResetStartsANewBaseline) {
  MetricsRegistry m;
  TimeSeries ts(with_registry(m));
  for (int i = 0; i < 5; ++i) record(m, 1, 20'000);
  ts.close_epoch(WdSample{});
  EXPECT_EQ(ts.latest().lat[1].count, 5u);

  // The cumulative histogram shrinks: that epoch reports nothing and the
  // post-reset counts become the baseline.
  m.reset();
  for (int i = 0; i < 2; ++i) record(m, 1, 20'000);
  ts.close_epoch(WdSample{});
  EXPECT_EQ(ts.latest().lat[1].count, 0u);

  record(m, 1, 20'000);
  ts.close_epoch(WdSample{});
  EXPECT_EQ(ts.latest().lat[1].count, 1u);
}

TEST(TimeSeries, LevelsTheRegistryDoesNotTrackStaySilent) {
  MetricsRegistry m(8);
  TimeSeries ts(with_registry(m));
  record(m, 8, 1000);
  record(m, TsEpoch::kMaxLevels - 1, 1000);
  ts.close_epoch(WdSample{});
  const TsEpoch e = ts.latest();
  for (int p = 0; p < TsEpoch::kMaxLevels; ++p) {
    EXPECT_EQ(e.lat[p].count, 0u) << p;
  }
}

TEST(TimeSeries, RingRotatesAndKeepsNewest) {
  MetricsRegistry m;
  TimeSeries::Config tc = with_registry(m);
  tc.epochs = 4;
  TimeSeries ts(tc);
  for (int i = 0; i < 6; ++i) {
    record(m, 0, 1000);
    ts.close_epoch(WdSample{});
  }
  EXPECT_EQ(ts.epochs_closed(), 6u);
  const std::vector<TsEpoch> eps = ts.epochs();
  ASSERT_EQ(eps.size(), 4u);  // bounded by capacity
  EXPECT_EQ(eps.front().seq, 2u);  // oldest retained
  EXPECT_EQ(eps.back().seq, 5u);   // newest
  for (std::size_t i = 1; i < eps.size(); ++i) {
    EXPECT_EQ(eps[i].seq, eps[i - 1].seq + 1);
    EXPECT_EQ(eps[i].lat[0].count, 1u);
  }
}

TEST(TimeSeries, CounterDeltasPerEpoch) {
  MetricsRegistry m;
  TimeSeries ts(with_registry(m));

  m.count(EventKind::kSteal, 0);
  m.count(EventKind::kSteal, 1);
  m.count(EventKind::kSteal, 1);
  m.count(EventKind::kMug, 0);
  ts.close_epoch(WdSample{});
  EXPECT_EQ(ts.latest().steals, 3u);
  EXPECT_EQ(ts.latest().mugs, 1u);
  EXPECT_EQ(ts.latest().abandons, 0u);

  // Deltas, not totals: only activity since the previous close.
  m.count(EventKind::kSteal, 0);
  ts.close_epoch(WdSample{});
  EXPECT_EQ(ts.latest().steals, 1u);
  EXPECT_EQ(ts.latest().mugs, 0u);
}

TEST(TimeSeries, BaselinesAtConstruction) {
  MetricsRegistry m;
  m.count(EventKind::kSteal, 0);
  m.count(EventKind::kSteal, 0);
  record(m, 1, 1000);
  TimeSeries ts(with_registry(m));  // earlier totals stay out of epoch 0
  ts.close_epoch(WdSample{});
  EXPECT_EQ(ts.latest().steals, 0u);
  EXPECT_EQ(ts.latest().lat[1].count, 0u);
}

TEST(TimeSeries, GaugesAndCloseTimeComeFromTheSample) {
  TimeSeries ts(TimeSeries::Config{});
  WdSample s;
  s.t_ns = now_ns();
  s.bitfield = 0x6;
  s.num_levels = 2;
  s.pool_depth[1] = 7;
  s.mug_depth[1] = 2;
  s.sleepers = 3;
  s.io_armed = 11;
  s.timers_pending = 4;
  ts.close_epoch(s);
  const TsEpoch e = ts.latest();
  EXPECT_EQ(e.t_ns, s.t_ns);
  EXPECT_EQ(e.bitfield, 0x6u);
  EXPECT_EQ(e.num_levels, 2);
  EXPECT_EQ(e.pool_depth[1], 7u);
  EXPECT_EQ(e.mug_depth[1], 2u);
  EXPECT_EQ(e.sleepers, 3);
  EXPECT_EQ(e.io_armed, 11);
  EXPECT_EQ(e.timers_pending, 4);
}

TEST(TimeSeries, DueFollowsTheEpochGrid) {
  TimeSeries::Config tc;
  tc.epoch_ms = 50;
  const std::uint64_t before = now_ns();
  TimeSeries ts(tc);
  const std::uint64_t after = now_ns();
  constexpr std::uint64_t kEpoch = 50'000'000;
  EXPECT_FALSE(ts.due(before + kEpoch - 1));
  EXPECT_TRUE(ts.due(after + kEpoch));

  // Closing late keeps the grid: the next deadline is one epoch past the
  // previous one, not one epoch past the close.
  WdSample s;
  s.t_ns = after + kEpoch + kEpoch / 2;
  ts.close_epoch(s);
  EXPECT_FALSE(ts.due(s.t_ns));
  EXPECT_TRUE(ts.due(after + 2 * kEpoch));
  // A sampler that slept through whole windows skips them.
  s.t_ns = after + 5 * kEpoch;
  ts.close_epoch(s);
  EXPECT_FALSE(ts.due(before + 6 * kEpoch - 1));
  EXPECT_TRUE(ts.due(after + 6 * kEpoch));
}

TEST(TimeSeries, JsonShape) {
  MetricsRegistry m;
  TimeSeries::Config tc = with_registry(m);
  tc.scheduler = "prompt";
  tc.epoch_ms = 250;
  TimeSeries ts(tc);
  record(m, 1, 42'000);
  ts.close_epoch(WdSample{});
  const std::string j = ts.json();
  for (const char* needle :
       {"\"timeseries\":1", "\"scheduler\":\"prompt\"", "\"epoch_ms\":250",
        "\"epochs_closed\":1", "\"epochs\":[{", "\"levels\":{\"1\":{",
        "\"count\":1", "\"p99_ns\":", "\"steals\":0"}) {
    EXPECT_NE(j.find(needle), std::string::npos) << needle << "\n" << j;
  }
  EXPECT_EQ(j.find("compiled_in"), std::string::npos) << j;
  // Silent levels are elided from the levels map.
  EXPECT_EQ(j.find("\"0\":{"), std::string::npos) << j;
  // Structural sanity: brackets balance.
  long depth = 0;
  for (const char c : j) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TimeSeries, StatsTextShape) {
  MetricsRegistry m;
  TimeSeries ts(with_registry(m));
  record(m, 1, 30'000);
  ts.close_epoch(WdSample{});
  const std::string s = ts.stats_text("icilk_", "\r\n");
  for (const char* needle :
       {"STAT icilk_ts_epochs_closed 1", "STAT icilk_ts_last_steals 0",
        "STAT icilk_ts_l1_count 1", "STAT icilk_ts_l1_p99_us "}) {
    EXPECT_NE(s.find(needle), std::string::npos) << needle << "\n" << s;
  }
  EXPECT_EQ(s.find("compiled_in"), std::string::npos) << s;
  EXPECT_EQ(s.find("l0_count"), std::string::npos);  // silent level elided
}

// Recorders racing the epoch close: every completed request lands in
// exactly one epoch, because an epoch's count is a difference of
// cumulative bucket counts and the differences telescope. Ring sized so
// nothing rotates out.
TEST(TimeSeries, ConcurrentRecordVsCloseLosesNothing) {
  MetricsRegistry m;
  TimeSeries::Config tc = with_registry(m);
  tc.epochs = 4096;
  TimeSeries ts(tc);
  constexpr int kThreads = 4;
  constexpr int kPer = 30000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&m, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPer; ++i) {
        record(m, 1, 1000 + static_cast<std::uint64_t>(i % 512));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int i = 0; i < 200; ++i) {
    ts.close_epoch(WdSample{});
    std::this_thread::sleep_for(50us);
  }
  for (auto& w : workers) w.join();
  ts.close_epoch(WdSample{});  // close the final window

  std::uint64_t total = 0;
  for (const TsEpoch& e : ts.epochs()) total += e.lat[1].count;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPer);
}

TEST(TimeSeries, FlightBundleEmbedRoundTrips) {
  MetricsRegistry m;
  TimeSeries::Config tc = with_registry(m);
  tc.scheduler = "prompt";
  TimeSeries ts(tc);
  record(m, 1, 77'000);
  ts.close_epoch(WdSample{});

  FlightBundle b;
  b.reason = "manual";
  b.detail = "test";
  b.build_flags = build_flags_string();
  b.scheduler = "prompt";
  b.trigger.t_ns = 1;
  b.timeseries = &ts;
  const std::string j = flight_bundle_json(b);
  EXPECT_NE(j.find("\"timeseries\":{"), std::string::npos) << j;

  const ParsedFlightBundle p = parse_flight_bundle(j);
  EXPECT_TRUE(p.ok) << p.error;
  EXPECT_TRUE(p.has_timeseries);

  // Without the embed the flag stays false.
  b.timeseries = nullptr;
  const ParsedFlightBundle p2 = parse_flight_bundle(flight_bundle_json(b));
  EXPECT_TRUE(p2.ok) << p2.error;
  EXPECT_FALSE(p2.has_timeseries);
}

// ---------------------------------------------------------------------------
// The runtime's obs sampler thread
// ---------------------------------------------------------------------------

template <typename Pred>
bool eventually(Pred p, std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return p();
}

std::unique_ptr<Runtime> make_rt(bool watchdog, bool timeseries) {
  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.num_levels = 4;
  cfg.watchdog_enabled = watchdog;
  cfg.watchdog_period_ms = 5;
  cfg.watchdog_bundle_dir = testing::TempDir();
  cfg.timeseries_enabled = timeseries;
  cfg.timeseries_epoch_ms = 20;
  return std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(RuntimeSampler, TimeseriesAloneClosesEpochsUntilShutdown) {
  auto rt = make_rt(false, true);
  TimeSeries* ts = rt->timeseries();
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(rt->watchdog(), nullptr);
  ASSERT_TRUE(eventually([&] { return ts->epochs_closed() >= 3; }));
  rt->shutdown();
  const std::uint64_t closed = ts->epochs_closed();
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(ts->epochs_closed(), closed);  // the sampler really stopped
}

TEST(RuntimeSampler, BothConsumersShareOneSample) {
  if (!watchdog_compiled_in()) GTEST_SKIP() << "ICILK_WATCHDOG=OFF";
  auto rt = make_rt(true, true);
  ASSERT_NE(rt->watchdog(), nullptr);
  ASSERT_NE(rt->timeseries(), nullptr);
  ASSERT_TRUE(
      eventually([&] { return rt->timeseries()->epochs_closed() >= 3; }));
  rt->shutdown();

  // Every epoch closed on a watchdog sample: its t_ns is that sample's.
  const std::vector<WdSample> hist = rt->watchdog()->history();
  ASSERT_FALSE(hist.empty());
  std::size_t checked = 0;
  for (const TsEpoch& e : rt->timeseries()->epochs()) {
    if (e.t_ns < hist.front().t_ns) continue;  // rotated out of history
    ++checked;
    bool found = false;
    for (const WdSample& s : hist) found = found || s.t_ns == e.t_ns;
    EXPECT_TRUE(found) << "epoch " << e.seq << " t_ns " << e.t_ns;
  }
  EXPECT_GE(checked, 2u);
}

TEST(RuntimeSampler, OneThreadServesBothConsumers) {
  // Joined threads can stay listed for a moment after they exit, which
  // only ever inflates a count: let earlier ones drain before the
  // baseline, and wait for the comparison to settle.
  std::this_thread::sleep_for(10ms);
  std::size_t off = 0;
  {
    auto rt = make_rt(false, false);
    off = thread_count();
    rt->shutdown();
  }
  auto rt = make_rt(true, true);
  EXPECT_TRUE(eventually([&] { return thread_count() == off + 1; }))
      << thread_count() << " threads, " << off << " without obs";
  rt->shutdown();
}

}  // namespace
}  // namespace icilk::obs
