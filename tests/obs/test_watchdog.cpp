// Watchdog / flight-recorder tests (src/obs/watchdog.hpp, flightrec.hpp).
//
// Three layers:
//   * scripted detectors — sample_once() is fed hand-written WdSample
//     sequences, so every detector's fire/no-fire boundary is exercised
//     fully deterministically (no sleeps, no load);
//   * end-to-end — a real runtime under inject-forced scenarios (the
//     kPromptMask crosspoint manufactures a promptness violation; planted
//     census entries manufacture an aging stall; blocked tasks a census
//     leak), with clean-run controls proving zero false positives;
//   * bundles — every dump round-trips through parse_flight_bundle and
//     carries the active injection seed; plus the sampler-vs-teardown
//     race that scripts/soak.sh runs under TSan/ASan.
#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "core/runtime.hpp"
#include "inject/inject.hpp"
#include "obs/flightrec.hpp"
#include "obs/watchdog.hpp"

namespace icilk::obs {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kMs = 1000000ull;

/// Spin-wait helper with deadline.
template <typename Pred>
bool eventually(Pred p, std::chrono::milliseconds limit = 3000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return p();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Scripted detectors: no runtime, no sampler thread; the test feeds
// samples through sample_once(), with t_ns as virtual time.
// ---------------------------------------------------------------------------

/// A script of samples plus the watchdog config the cases share.
struct ScriptedSampler {
  std::vector<WdSample> script;

  Watchdog::Config config() {
    Watchdog::Config cfg;
    cfg.bundle_dir = testing::TempDir();
    cfg.bundle_prefix = "wdtest";
    return cfg;
  }
  /// Feeds the whole script, in order.
  void feed(Watchdog& wd) const {
    for (const WdSample& s : script) wd.sample_once(s);
  }
};

/// A quiet 2-worker / 8-level sample at virtual time `t`.
WdSample idle_sample(std::uint64_t t) {
  WdSample s;
  s.t_ns = t;
  s.num_levels = 8;
  s.num_workers = 2;
  s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kStealing);
  s.worker_state[1] = static_cast<std::uint8_t>(WdWorkerState::kStealing);
  return s;
}

TEST(WdDetectors, PromptnessFiresOnPersistentDwell) {
  ScriptedSampler src;
  // Level 5 occupied from t=1s on; worker 0 works at level 1 throughout.
  for (int i = 0; i < 6; ++i) {
    WdSample s = idle_sample(1000 * kMs + static_cast<std::uint64_t>(i) *
                                              10 * kMs);
    s.bitfield = 1ull << 5;
    s.pool_depth[5] = 1;
    s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
    s.worker_level[0] = 1;
    s.worker_state[1] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
    s.worker_level[1] = 1;
    src.script.push_back(s);
  }
  auto cfg = src.config();
  cfg.promptness_threshold_ms = 25;
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_EQ(wd.trips(WdDetector::kPromptness), 1u)
      << "fires once, then stays disarmed until the level clears";
  EXPECT_EQ(wd.trips_total(), 1u) << "no other detector fires";
  EXPECT_EQ(wd.bundles_written(), 1u) << "the trip wrote an auto bundle";
}

TEST(WdDetectors, PromptnessRearmsAfterLevelClears) {
  ScriptedSampler src;
  auto dwell = [&](std::uint64_t t) {
    WdSample s = idle_sample(t);
    s.bitfield = 1ull << 5;
    s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
    s.worker_level[0] = 0;
    s.worker_state[1] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
    s.worker_level[1] = 6;  // worker 1 is fine; worker 0 trips it
    src.script.push_back(s);
  };
  std::uint64_t t = 1000 * kMs;
  for (int i = 0; i < 5; ++i) dwell(t += 10 * kMs);
  src.script.push_back(idle_sample(t += 10 * kMs));  // level clears: re-arm
  for (int i = 0; i < 5; ++i) dwell(t += 10 * kMs);
  auto cfg = src.config();
  cfg.promptness_threshold_ms = 25;
  cfg.max_auto_bundles = 0;  // counting trips only
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_EQ(wd.trips(WdDetector::kPromptness), 2u);
  EXPECT_EQ(wd.bundles_written(), 0u) << "auto bundles disabled";
}

TEST(WdDetectors, PromptnessSilentWhenWorkersServiceTheLevel) {
  ScriptedSampler src;
  for (int i = 0; i < 8; ++i) {
    WdSample s = idle_sample(1000 * kMs + static_cast<std::uint64_t>(i) *
                                              10 * kMs);
    s.bitfield = 1ull << 5;
    // Worker 0 works AT the occupied level; worker 1 is stealing (a thief
    // is on its way, not a violation).
    s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
    s.worker_level[0] = 5;
    src.script.push_back(s);
  }
  auto cfg = src.config();
  cfg.promptness_threshold_ms = 25;
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_EQ(wd.trips_total(), 0u);
}

TEST(WdDetectors, PromptnessNeedsTwoConsecutiveSamples) {
  // The dwelling worker appears on only ONE sample (caught mid-transition):
  // must not trip, however long the level stays occupied.
  ScriptedSampler src;
  std::uint64_t t = 1000 * kMs;
  for (int i = 0; i < 8; ++i) {
    WdSample s = idle_sample(t += 10 * kMs);
    s.bitfield = 1ull << 5;
    if (i == 5) {
      s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
      s.worker_level[0] = 0;
    } else {
      s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
      s.worker_level[0] = 6;
    }
    src.script.push_back(s);
  }
  auto cfg = src.config();
  cfg.promptness_threshold_ms = 25;
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_EQ(wd.trips_total(), 0u);
}

TEST(WdDetectors, AgingStallFiresAndRearms) {
  ScriptedSampler src;
  std::uint64_t t = 1000 * kMs;
  auto aged = [&](std::uint64_t age) {
    WdSample s = idle_sample(t += 10 * kMs);
    s.resumable = 1;
    s.res_oldest_level = 3;
    s.res_oldest_age_ns = age;
    s.res_age_max_ns = age;
    return s;
  };
  src.script.push_back(aged(150 * kMs));  // first: arms prev
  src.script.push_back(aged(160 * kMs));  // second consecutive: FIRES
  src.script.push_back(aged(170 * kMs));  // still bad: disarmed, no re-fire
  src.script.push_back(idle_sample(t += 10 * kMs));  // cleared: re-arms
  src.script.push_back(aged(150 * kMs));
  src.script.push_back(aged(160 * kMs));  // fires again
  auto cfg = src.config();
  cfg.aging_threshold_ms = 100;
  cfg.max_auto_bundles = 0;
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_EQ(wd.trips(WdDetector::kAgingStall), 2u);
  EXPECT_EQ(wd.trips_total(), 2u);
}

TEST(WdDetectors, AgingSilentWhenWorkersBusyAtOrAbove) {
  ScriptedSampler src;
  std::uint64_t t = 1000 * kMs;
  for (int i = 0; i < 6; ++i) {
    WdSample s = idle_sample(t += 10 * kMs);
    s.resumable = 1;
    s.res_oldest_level = 3;
    s.res_oldest_age_ns = 500 * kMs;
    // Every worker is WORKING at >= the stalled level: saturated system,
    // an old-but-being-outranked resumable deque is expected.
    s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
    s.worker_level[0] = 3;
    s.worker_state[1] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
    s.worker_level[1] = 7;
    src.script.push_back(s);
  }
  Watchdog wd(src.config());
  src.feed(wd);
  EXPECT_EQ(wd.trips_total(), 0u);
}

TEST(WdDetectors, WakeStormNeedsConsecutiveHotSamples) {
  ScriptedSampler src;
  std::uint64_t t = 1000 * kMs;
  std::uint64_t wakeups = 0;
  auto at_rate = [&](std::uint64_t per_sample) {
    WdSample s = idle_sample(t += 10 * kMs);
    wakeups += per_sample;
    s.wakeups = wakeups;
    return s;
  };
  // 3 hot samples (streak 3 < 4), one cool sample (streak resets), then 4
  // hot in a row: exactly one trip.
  for (int i = 0; i < 3; ++i) src.script.push_back(at_rate(5000));
  src.script.push_back(at_rate(1));
  for (int i = 0; i < 4; ++i) src.script.push_back(at_rate(5000));
  auto cfg = src.config();
  cfg.wake_storm_per_s = 100000.0;  // 5000/10ms = 500k/s >> threshold
  cfg.wake_storm_samples = 4;
  cfg.max_auto_bundles = 0;
  Watchdog wd(cfg);
  // An extra baseline sample so the first delta exists.
  src.script.insert(src.script.begin(), idle_sample(1000 * kMs));
  src.feed(wd);
  EXPECT_EQ(wd.trips(WdDetector::kWakeStorm), 1u);
}

TEST(WdDetectors, CensusLeakFiresOnGrowthWithoutCompletions) {
  ScriptedSampler src;
  std::uint64_t t = 1000 * kMs;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    WdSample s = idle_sample(t += 10 * kMs);
    s.suspended = i;       // strictly growing
    s.tasks_run = 1000;    // flat: nothing completes
    src.script.push_back(s);
  }
  auto cfg = src.config();
  cfg.census_leak_samples = 4;
  cfg.max_auto_bundles = 0;
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_EQ(wd.trips(WdDetector::kCensusLeak), 1u);
}

TEST(WdDetectors, CensusLeakSilentWhileTasksComplete) {
  ScriptedSampler src;
  std::uint64_t t = 1000 * kMs;
  for (std::uint32_t i = 1; i <= 12; ++i) {
    WdSample s = idle_sample(t += 10 * kMs);
    s.suspended = i;            // growing...
    s.tasks_run = 1000 + i;     // ...but the system makes progress
    src.script.push_back(s);
  }
  auto cfg = src.config();
  cfg.census_leak_samples = 4;
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_EQ(wd.trips_total(), 0u);
}

TEST(WdDetectors, QuietSystemStaysSilent) {
  ScriptedSampler src;
  for (int i = 0; i < 64; ++i) {
    src.script.push_back(idle_sample(1000 * kMs +
                                     static_cast<std::uint64_t>(i) * 10 *
                                         kMs));
  }
  Watchdog wd(src.config());
  src.feed(wd);
  EXPECT_EQ(wd.trips_total(), 0u);
  EXPECT_EQ(wd.samples(), 64u);
  EXPECT_EQ(wd.history().size(), 64u);
}

TEST(WdDetectors, AutoBundlesAreCapped) {
  // A persistently violating system must not write unbounded bundles.
  ScriptedSampler src;
  std::uint64_t t = 1000 * kMs;
  for (int i = 0; i < 40; ++i) {
    WdSample s = idle_sample(t += 10 * kMs);
    s.bitfield = 1ull << 5;
    s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
    s.worker_level[0] = 0;
    // Alternate a clearing sample so the detector re-arms and keeps
    // tripping.
    if (i % 4 == 3) s.bitfield = 0;
    src.script.push_back(s);
  }
  auto cfg = src.config();
  cfg.promptness_threshold_ms = 5;
  cfg.max_auto_bundles = 2;
  cfg.bundle_min_interval_ms = 0;
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_GE(wd.trips(WdDetector::kPromptness), 3u);
  EXPECT_EQ(wd.bundles_written(), 2u);
}

// ---------------------------------------------------------------------------
// Bundles: write -> parse round trip
// ---------------------------------------------------------------------------

TEST(FlightBundle, DumpRoundTripsThroughParser) {
  ScriptedSampler src;
  for (int i = 0; i < 5; ++i) {
    src.script.push_back(idle_sample(1000 * kMs +
                                     static_cast<std::uint64_t>(i) * 10 *
                                         kMs));
  }
  auto cfg = src.config();
  cfg.inject_seed_fn = [] { return std::uint64_t{0xDEADBEEF}; };
  cfg.scheduler = "multiqueue";
  Watchdog wd(cfg);
  src.feed(wd);

  const std::string path = wd.dump_now("unit_test_dump");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(wd.last_bundle_path(), path);
  EXPECT_EQ(wd.bundles_written(), 1u);

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  const ParsedFlightBundle b = parse_flight_bundle(text);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.reason, "unit_test_dump");
  EXPECT_EQ(b.inject_seed, 0xDEADBEEFull);
  EXPECT_EQ(b.num_samples, 5);
  EXPECT_EQ(b.build_flags, build_flags_string());
  EXPECT_EQ(b.scheduler, "multiqueue");
  EXPECT_NE(b.trigger_t_ns, 0u);
  std::remove(path.c_str());
}

TEST(FlightBundle, BundleCarriesMetricsAndTrace) {
  MetricsRegistry metrics(8);
  metrics.count(EventKind::kSteal, 3);
  TraceSink trace(1 << 10, true);
  trace.acquire_ring("w0").record(EventKind::kSteal, 3, 0);

  ScriptedSampler src;
  src.script.push_back(idle_sample(1000 * kMs));
  auto cfg = src.config();
  cfg.metrics = &metrics;
  cfg.trace = &trace;
  Watchdog wd(cfg);
  src.feed(wd);
  const std::string path = wd.dump_now("with_surfaces");
  ASSERT_FALSE(path.empty());
  const ParsedFlightBundle b = parse_flight_bundle(read_file(path));
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_TRUE(b.has_metrics);
  EXPECT_TRUE(b.has_trace);
  // The writer always emits the parallelism document alongside metrics
  // (empty when spanprof is compiled out), and a same-version round trip
  // never sees unknown members.
  EXPECT_TRUE(b.has_parallelism);
  EXPECT_EQ(b.unknown_keys, 0u);
  std::remove(path.c_str());
}

// A bundle written by a NEWER runtime may carry members this parser
// predates; they must be validated, counted, and skipped — not rejected.
TEST(FlightBundle, ParserSkipsUnknownMembersFromNewerWriters) {
  const ParsedFlightBundle b = parse_flight_bundle(
      "{\"flight_bundle\":1,\"reason\":\"skew\","
      "\"from_the_future\":{\"nested\":[1,2,{\"deep\":true}]},"
      "\"another_new_scalar\":42,"
      "\"scheduler\":\"prompt\"}");
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.unknown_keys, 2u);
  // Known members on either side of the unknown ones still parse.
  EXPECT_EQ(b.reason, "skew");
  EXPECT_EQ(b.scheduler, "prompt");
}

TEST(FlightBundle, MalformedUnknownMemberStillRejected) {
  // Unknown keys are skipped, but their VALUES must still be valid JSON —
  // a truncated value is corruption, not version skew.
  const ParsedFlightBundle b = parse_flight_bundle(
      "{\"flight_bundle\":1,\"new_thing\":[1,2,");
  EXPECT_FALSE(b.ok);
  EXPECT_FALSE(b.error.empty());
}

// Seeds are arbitrary 64-bit values; a bundle must replay the exact one,
// past the 2^53 a double holds.
TEST(FlightBundle, InjectSeedRoundTripsExactly) {
  FlightBundle fb;
  fb.inject_seed = 0xDEADBEEFCAFEBABEull;
  const ParsedFlightBundle b = parse_flight_bundle(flight_bundle_json(fb));
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.inject_seed, 0xDEADBEEFCAFEBABEull);
}

TEST(FlightBundle, ParserRejectsGarbage) {
  EXPECT_FALSE(parse_flight_bundle("").ok);
  EXPECT_FALSE(parse_flight_bundle("{").ok);
  EXPECT_FALSE(parse_flight_bundle("{\"flight_bundle\":2}").ok);
  EXPECT_FALSE(parse_flight_bundle("not json at all").ok);
  // Trailing garbage after a valid document is rejected too.
  EXPECT_FALSE(
      parse_flight_bundle("{\"flight_bundle\":1,\"reason\":\"x\"} extra")
          .ok);
}

TEST(FlightBundle, BuildFlagsStringNamesEverySubsystem) {
  const std::string f = build_flags_string();
  for (const char* key :
       {"obs=", "inject=", "sanitize=", "assertions="}) {
    EXPECT_NE(f.find(key), std::string::npos) << key << " missing in " << f;
  }
}

// ---------------------------------------------------------------------------
// Exposition surfaces
// ---------------------------------------------------------------------------

TEST(WdExposition, HealthJsonAndStatsText) {
  ScriptedSampler src;
  WdSample s = idle_sample(1000 * kMs);
  s.sleepers = 1;
  s.wakeups = 42;
  s.zero_transitions = 7;
  src.script.push_back(s);
  Watchdog wd(src.config());
  src.feed(wd);

  const std::string j = wd.health_json();
  EXPECT_NE(j.find("\"watchdog\":{"), std::string::npos);
  EXPECT_NE(j.find("\"sleepers\":1"), std::string::npos);
  EXPECT_NE(j.find("\"wakeups\":42"), std::string::npos);
  EXPECT_NE(j.find("\"zero_transitions\":7"), std::string::npos);
  EXPECT_NE(j.find("\"trips\":{"), std::string::npos);

  const std::string t = wd.health_stats_text("icilk_", "\r\n");
  EXPECT_NE(t.find("STAT icilk_wd_samples 1\r\n"), std::string::npos);
  EXPECT_NE(t.find("STAT icilk_wd_sleepers 1\r\n"), std::string::npos);
  EXPECT_NE(t.find("STAT icilk_wd_trips_total 0\r\n"), std::string::npos);
}

TEST(WdExposition, MetricsGaugesMirrored) {
  MetricsRegistry metrics(8);
  ScriptedSampler src;
  WdSample s = idle_sample(1000 * kMs);
  s.sleepers = 2;
  src.script.push_back(s);
  auto cfg = src.config();
  cfg.metrics = &metrics;
  Watchdog wd(cfg);
  src.feed(wd);
  EXPECT_EQ(metrics.wd_gauge(WdGauge::kSamples), 1);
  EXPECT_EQ(metrics.wd_gauge(WdGauge::kSleepers), 2);
  // The STAT text renders the wd_ group once samples exist.
  EXPECT_NE(metrics.text("icilk_", "\r\n").find("icilk_wd_samples"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: real runtime, inject-forced scenarios, clean controls
// ---------------------------------------------------------------------------

std::unique_ptr<Runtime> make_wd_rt(int workers, int period_ms = 5,
                                    bool timeseries = false) {
  RuntimeConfig cfg;
  cfg.num_workers = workers;
  cfg.num_levels = 8;
  cfg.watchdog_enabled = true;
  cfg.watchdog_period_ms = period_ms;
  cfg.watchdog_bundle_dir = testing::TempDir();
  cfg.timeseries_enabled = timeseries;
  cfg.timeseries_epoch_ms = 2;
  return std::make_unique<Runtime>(cfg,
                                   std::make_unique<PromptScheduler>());
}

// The runtime's sampler polls the SIGUSR2 counter on every sample and
// turns a delivery into an on-demand bundle.
TEST(WdSignal, Sigusr2TriggersBundle) {
  if (!compiled_in()) GTEST_SKIP() << "ICILK_OBS=OFF";
  auto rt = make_wd_rt(1, 1);
  ASSERT_NE(rt->watchdog(), nullptr);
  ASSERT_TRUE(rt->watchdog()->config().handle_sigusr2);
  ASSERT_TRUE(eventually([&] { return rt->watchdog()->samples() > 0; }));
  ::raise(SIGUSR2);
  ASSERT_TRUE(
      eventually([&] { return rt->watchdog()->bundles_written() >= 1; }))
      << "SIGUSR2 delivery did not produce a bundle";
  rt->shutdown();
  const ParsedFlightBundle b =
      parse_flight_bundle(read_file(rt->watchdog()->last_bundle_path()));
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.reason, "sigusr2");
  std::remove(rt->watchdog()->last_bundle_path().c_str());
}

TEST(WdEndToEnd, RuntimeRunsSamplerAndStaysClean) {
  if (!compiled_in()) GTEST_SKIP() << "ICILK_OBS=OFF";
  auto rt = make_wd_rt(2, 2);
  ASSERT_NE(rt->watchdog(), nullptr);
  // Mixed-priority load; a healthy scheduler must not trip anything.
  std::vector<Future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(rt->submit(i % 8, [] {
      for (int k = 0; k < 4; ++k) {
        spawn([] {});
        sync();
      }
    }));
  }
  for (auto& f : futs) f.get();
  ASSERT_TRUE(
      eventually([&] { return rt->watchdog()->samples() >= 10; }));
  EXPECT_EQ(rt->watchdog()->trips_total(), 0u)
      << "clean run must not trip detectors";
  const WdSample s = rt->watchdog()->latest();
  EXPECT_EQ(s.num_workers, 2);
  EXPECT_EQ(s.num_levels, 8);
  EXPECT_GT(s.tasks_run, 0u);
  rt->shutdown();
}

TEST(WdEndToEnd, InjectPromptMaskTripsPromptnessDetector) {
  if (!compiled_in()) GTEST_SKIP() << "ICILK_OBS=OFF";
  if (!inject::compiled_in()) GTEST_SKIP() << "ICILK_INJECT=OFF";
  // Mask EVERY promptness check: workers dwell at their level no matter
  // what the bitfield says — the exact violation the detector owns.
  inject::Config icfg;
  icfg.seed = 0xC0FFEE;
  icfg.set_rate(inject::Point::kPromptMask, 1000000);
  icfg.set_force(inject::Point::kPromptMask, inject::Action::kForce);
  inject::Engine engine(icfg);
  engine.install();

  auto rt = make_wd_rt(2, 5);
  ASSERT_NE(rt->watchdog(), nullptr);
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<Future<void>> low;
  // Two level-0 grinders with spawn boundaries: every boundary probes
  // pre_op_check, every probe is masked, so neither ever abandons.
  for (int i = 0; i < 2; ++i) {
    low.push_back(rt->submit(0, [&] {
      started.fetch_add(1);
      while (!stop.load()) {
        spawn([] {});
        sync();
      }
    }));
  }
  ASSERT_TRUE(eventually([&] { return started.load() == 2; }));
  // High-priority work arrives and can only sit there: both workers are
  // masked at level 0. Default promptness threshold is 100ms; give the
  // sampler comfortably more than that.
  auto high = rt->submit(5, [] {});
  // Watchdog::trip bumps the trip count BEFORE it writes the bundle (the
  // bundle records the count), so wait for both, not just the trip.
  const bool tripped = eventually(
      [&] {
        return rt->watchdog()->trips(WdDetector::kPromptness) >= 1 &&
               rt->watchdog()->bundles_written() >= 1;
      },
      3000ms);
  stop.store(true);
  for (auto& f : low) f.get();
  high.get();
  engine.uninstall();
  EXPECT_TRUE(tripped) << "masked workers never surfaced as a violation";
  // The auto bundle must carry the injection seed for replay.
  ASSERT_GE(rt->watchdog()->bundles_written(), 1u);
  const ParsedFlightBundle b =
      parse_flight_bundle(read_file(rt->watchdog()->last_bundle_path()));
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.reason, "promptness");
  EXPECT_EQ(b.inject_seed, 0xC0FFEEull);
  std::remove(rt->watchdog()->last_bundle_path().c_str());
  rt->shutdown();
}

TEST(WdEndToEnd, PlantedStaleResumableTripsAgingDetector) {
  if (!compiled_in()) GTEST_SKIP() << "ICILK_OBS=OFF";
  // A resumable-census entry whose publication "got lost": planted
  // directly in the registry (the hook is the public contract), aged far
  // past threshold, while the runtime's workers sit idle.
  auto rt = make_wd_rt(2, 5);
  ASSERT_NE(rt->watchdog(), nullptr);
  int key = 0;
  wd_census_note(&key, WdDequeState::kResumable, now_ns() - 500 * kMs, 3);
  const bool tripped = eventually(
      [&] { return rt->watchdog()->trips(WdDetector::kAgingStall) >= 1; },
      3000ms);
  wd_census_note(&key, WdDequeState::kGone, 0, 0);
  EXPECT_TRUE(tripped) << "stale resumable entry with idle workers";
  rt->shutdown();
}

TEST(WdEndToEnd, SuspendedTasksShowInCensusAndDrainClean) {
  if (!compiled_in()) GTEST_SKIP() << "ICILK_OBS=OFF";
  auto rt = make_wd_rt(2, 2);
  std::atomic<bool> release{false};
  // A gate task occupies one worker until released; blockers pile up
  // suspended on its future, growing the suspended census.
  auto gate = rt->submit(1, [&] {
    while (!release.load()) std::this_thread::yield();
  });
  std::vector<Future<void>> blockers;
  for (int i = 0; i < 8; ++i) {
    blockers.push_back(rt->submit(0, [&gate] { gate.get(); }));
  }
  ASSERT_TRUE(eventually([&] {
    return rt->watchdog()->latest().suspended >= 8;
  })) << "suspended census did not observe the blocked tasks";
  release.store(true);
  gate.get();
  for (auto& f : blockers) f.get();
  // Everything drained: the census must return to empty.
  ASSERT_TRUE(eventually([&] {
    const WdSample s = rt->watchdog()->latest();
    return s.suspended == 0 && s.resumable == 0;
  })) << "census entries leaked past task completion";
  EXPECT_EQ(rt->watchdog()->trips(WdDetector::kCensusLeak), 0u);
  rt->shutdown();
}

TEST(WdEndToEnd, SamplerVersusTeardownRace) {
  // The TSan/ASan target: a fast sampler, feeding both the watchdog and
  // the timeseries, racing runtime construction and destruction. Any
  // use-after-free between wd_fill_sample's walk and shutdown order is
  // caught here.
  const int iters = compiled_in() ? 15 : 3;
  for (int i = 0; i < iters; ++i) {
    auto rt = make_wd_rt(2, 1, true);
    std::vector<Future<void>> futs;
    for (int k = 0; k < 16; ++k) {
      futs.push_back(rt->submit(k % 8, [] {
        spawn([] {});
        sync();
      }));
    }
    for (auto& f : futs) f.get();
    // Alternate: half the iterations tear down immediately after the
    // work, half give the sampler a beat to be mid-sample.
    if (i % 2 == 0) std::this_thread::sleep_for(2ms);
    rt->shutdown();
  }
  SUCCEED();
}

TEST(WdEndToEnd, WatchdogOffByDefault) {
  RuntimeConfig cfg;
  cfg.num_workers = 1;
  cfg.num_levels = 4;
  Runtime rt(cfg, std::make_unique<PromptScheduler>());
  EXPECT_EQ(rt.watchdog(), nullptr);
  rt.submit(0, [] {}).get();
  rt.shutdown();
}

// Idle-sleep counter export (the PR's satellite fix): sleepers returns to
// zero at quiescence, wakeups and 0->non-zero transitions accumulate.
TEST(WdEndToEnd, PromptSchedulerExportsIdleSleepCounters) {
  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.num_levels = 4;
  auto sched = std::make_unique<PromptScheduler>();
  PromptScheduler* ps = sched.get();
  Runtime rt(cfg, std::move(sched));
  // Let workers go idle, then wake them with work, repeatedly.
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(10ms);
    std::vector<Future<void>> futs;
    for (int i = 0; i < 8; ++i) futs.push_back(rt.submit(0, [] {}));
    for (auto& f : futs) f.get();
  }
  EXPECT_GT(ps->idle_wakeups(), 0u);
  EXPECT_GT(ps->zero_transitions(), 0u);
  ASSERT_TRUE(eventually([&] { return ps->sleepers() <= cfg.num_workers; }));
  rt.shutdown();
  EXPECT_EQ(ps->sleepers(), 0);
}

}  // namespace
}  // namespace icilk::obs
