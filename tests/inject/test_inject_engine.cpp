// The injection engine's core contract: every decision is a pure function
// of (seed, stream, counter), so a run replays exactly from its seed —
// plus rate gating, menus, force overrides, and trace-ring recording.
#include "inject/inject.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/thread_ctx.hpp"

namespace icilk::inject {
namespace {

/// Cycles through every point, `rounds` decisions per run.
std::vector<Outcome> run_sequence(Engine& e, int rounds) {
  e.bind_stream(0);
  std::vector<Outcome> out;
  for (int i = 0; i < rounds; ++i) {
    out.push_back(e.decide(static_cast<Point>(i % kPointCount)));
  }
  return out;
}

Config hot_config(std::uint64_t seed) {
  Config cfg;
  cfg.seed = seed;
  cfg.set_all_rates(400000);  // 40%: plenty of hits AND misses
  cfg.max_delay_spins = 64;
  return cfg;
}

bool operator==(const Outcome& a, const Outcome& b) {
  return a.action == b.action && a.arg == b.arg;
}

TEST(InjectEngine, SameSeedSameSequence) {
  Engine a(hot_config(42));
  Engine b(hot_config(42));
  const auto sa = run_sequence(a, 5000);
  const auto sb = run_sequence(b, 5000);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_TRUE(sa[i] == sb[i]) << "diverged at decision " << i;
  }
  EXPECT_GT(a.injected(), 0u);
  EXPECT_EQ(a.injected(), b.injected());
}

TEST(InjectEngine, DifferentSeedDiverges) {
  Engine a(hot_config(42));
  Engine b(hot_config(43));
  const auto sa = run_sequence(a, 2000);
  const auto sb = run_sequence(b, 2000);
  bool same = true;
  for (std::size_t i = 0; i < sa.size(); ++i) same &= sa[i] == sb[i];
  EXPECT_FALSE(same);
}

// The replay contract itself: every logged decision reproduces through
// the pure eval() given only (config, stream id, counter index).
TEST(InjectEngine, LoggedDecisionsReplayThroughEval) {
  Engine e(hot_config(7));
  run_sequence(e, 3000);
  const auto log = e.stream_log(0);
  ASSERT_FALSE(log.empty());
  for (const Decision& d : log) {
    const Outcome o = Engine::eval(e.config(), 0, d.index, d.point);
    EXPECT_EQ(o.action, d.action);
    EXPECT_EQ(o.arg, d.arg);
    // And the point the log claims matches what the driver asked at that
    // index (indices cycle through the points in run_sequence).
    EXPECT_EQ(static_cast<int>(d.point),
              static_cast<int>(d.index % kPointCount));
  }
}

TEST(InjectEngine, RateZeroNeverFires) {
  Config cfg;
  cfg.seed = 9;  // all rates default to 0
  Engine e(cfg);
  for (const Outcome& o : run_sequence(e, 2000)) {
    EXPECT_EQ(o.action, Action::kNone);
  }
  EXPECT_EQ(e.injected(), 0u);
  EXPECT_EQ(e.decisions(), 2000u);
}

TEST(InjectEngine, RateFullAlwaysFires) {
  Config cfg;
  cfg.seed = 9;
  cfg.set_all_rates(1000000);
  Engine e(cfg);
  for (const Outcome& o : run_sequence(e, 1000)) {
    EXPECT_NE(o.action, Action::kNone);
  }
  EXPECT_EQ(e.injected(), 1000u);
}

TEST(InjectEngine, ForceActionOverridesMenu) {
  Config cfg;
  cfg.seed = 11;
  cfg.set_rate(Point::kSyscallRead, 1000000);
  cfg.set_force(Point::kSyscallRead, Action::kConnReset);
  Engine e(cfg);
  e.bind_stream(0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(e.decide(Point::kSyscallRead).action, Action::kConnReset);
  }
  EXPECT_EQ(e.injected_at(Point::kSyscallRead), 200u);
}

// Menus keep nonsense out: a timer point only ever delays, and delay args
// stay within the configured spin bound.
TEST(InjectEngine, MenuAndDelayBoundsRespected) {
  Config cfg;
  cfg.seed = 13;
  cfg.set_all_rates(1000000);
  cfg.max_delay_spins = 32;
  Engine e(cfg);
  e.bind_stream(0);
  for (int i = 0; i < 500; ++i) {
    const Outcome o = e.decide(Point::kTimerFire);
    EXPECT_EQ(o.action, Action::kDelay);
    EXPECT_GE(o.arg, 1u);
    EXPECT_LE(o.arg, 32u);
  }
  for (int i = 0; i < 500; ++i) {
    const Outcome o = e.decide(Point::kAbandonCheck);
    EXPECT_EQ(o.action, Action::kForce);  // only menu entry
  }
}

// Streams pinned to the same ids produce identical logs across runs even
// when the threads race each other arbitrarily.
TEST(InjectEngine, MultiThreadPinnedStreamsAreDeterministic) {
  constexpr int kThreads = 4;
  constexpr int kDecisions = 4000;
  auto run = [&](Engine& e) {
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&e, t] {
        e.bind_stream(static_cast<std::uint32_t>(t));
        for (int i = 0; i < kDecisions; ++i) {
          e.decide(static_cast<Point>((i + t) % kPointCount));
        }
      });
    }
    for (auto& t : ts) t.join();
  };
  Engine a(hot_config(99));
  Engine b(hot_config(99));
  run(a);
  run(b);
  ASSERT_EQ(a.stream_count(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    const auto la = a.stream_log(static_cast<std::uint32_t>(t));
    const auto lb = b.stream_log(static_cast<std::uint32_t>(t));
    EXPECT_FALSE(la.empty());
    EXPECT_EQ(la, lb) << "stream " << t << " diverged";
  }
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_EQ(a.decisions(),
            static_cast<std::uint64_t>(kThreads) * kDecisions);
}

TEST(InjectEngine, ProbeWithoutEngineIsInert) {
  ASSERT_EQ(Engine::active(), nullptr);
  EXPECT_EQ(probe(Point::kSteal).action, Action::kNone);
  EXPECT_EQ(probe(Point::kSyscallRead).action, Action::kNone);
}

TEST(InjectEngine, InstallRoutesProbesAndUninstallStops) {
  Config cfg;
  cfg.seed = 5;
  cfg.set_rate(Point::kSteal, 1000000);
  cfg.set_force(Point::kSteal, Action::kYield);
  Engine e(cfg);
  e.install();
  ASSERT_EQ(Engine::active(), &e);
  const Outcome o = probe(Point::kSteal);
  if (compiled_in()) {
    EXPECT_EQ(o.action, Action::kYield);
    EXPECT_GE(e.injected_at(Point::kSteal), 1u);
  } else {
    EXPECT_EQ(o.action, Action::kNone);  // hooks compiled out
  }
  e.uninstall();
  EXPECT_EQ(Engine::active(), nullptr);
  EXPECT_EQ(probe(Point::kSteal).action, Action::kNone);
}

// A second engine cannot displace an installed one; the destructor
// uninstalls only itself.
TEST(InjectEngine, SingleActiveEngine) {
  Config cfg;
  Engine a(cfg);
  a.install();
  {
    Engine b(cfg);
    b.install();  // refused: a is active
    EXPECT_EQ(Engine::active(), &a);
  }  // ~b must not knock a out
  EXPECT_EQ(Engine::active(), &a);
  a.uninstall();
}

TEST(InjectEngine, InjectedDecisionsLandInTraceRing) {
  if (!compiled_in() || !obs::compiled_in()) {
    GTEST_SKIP() << "hooks or tracing compiled out";
  }
  std::atomic<bool> enabled{true};
  obs::TraceRing ring(1 << 10, &enabled, "inject-test", 0);
  Config cfg;
  cfg.seed = 21;
  cfg.set_rate(Point::kMug, 1000000);
  cfg.set_force(Point::kMug, Action::kDelay);
  cfg.max_delay_spins = 8;
  Engine e(cfg);
  {
    obs::ThreadScope scope(&ring, obs::ProfThreadKind::kOther, 0, nullptr);
    e.install();
    for (int i = 0; i < 50; ++i) probe(Point::kMug);
    e.uninstall();
  }

  const auto events = ring.snapshot();
  std::size_t injects = 0;
  for (const auto& ev : events) {
    if (ev.kind != obs::EventKind::kInject) continue;
    ++injects;
    EXPECT_EQ(ev.level, static_cast<std::uint16_t>(Point::kMug));
    EXPECT_EQ(ev.arg >> 24, static_cast<std::uint32_t>(Action::kDelay));
    EXPECT_GE(ev.arg & 0xFFFFFFu, 1u);
    EXPECT_LE(ev.arg & 0xFFFFFFu, 8u);
  }
  EXPECT_EQ(injects, 50u);
}

TEST(InjectEngine, FromEnvOverlaysSeedRateAndSpins) {
  ::setenv("ICILK_INJECT_SEED", "777", 1);
  ::setenv("ICILK_INJECT_RATE", "1234", 1);
  ::setenv("ICILK_INJECT_DELAY_SPINS", "99", 1);
  const Config cfg = Config::from_env();
  ::unsetenv("ICILK_INJECT_SEED");
  ::unsetenv("ICILK_INJECT_RATE");
  ::unsetenv("ICILK_INJECT_DELAY_SPINS");
  EXPECT_EQ(cfg.seed, 777u);
  for (int p = 0; p < kPointCount; ++p) {
    EXPECT_EQ(cfg.rate_ppm[p], 1234u);
  }
  EXPECT_EQ(cfg.max_delay_spins, 99u);
  // And absent env leaves the base untouched.
  Config base;
  base.seed = 3;
  base.set_rate(Point::kSteal, 5);
  const Config same = Config::from_env(base);
  EXPECT_EQ(same.seed, 3u);
  EXPECT_EQ(same.rate_ppm[static_cast<int>(Point::kSteal)], 5u);
}

TEST(InjectEngine, NamesAreStable) {
  EXPECT_STREQ(point_name(Point::kSyscallRead), "syscall_read");
  EXPECT_STREQ(point_name(Point::kAbandonCheck), "abandon_check");
  EXPECT_STREQ(action_name(Action::kConnReset), "conn_reset");
  EXPECT_STREQ(action_name(Action::kNone), "none");
  for (int p = 0; p < kPointCount; ++p) {
    EXPECT_STRNE(point_name(static_cast<Point>(p)), "?");
  }
  for (int a = 0; a < static_cast<int>(Action::kCount); ++a) {
    EXPECT_STRNE(action_name(static_cast<Action>(a)), "?");
  }
}

}  // namespace
}  // namespace icilk::inject
