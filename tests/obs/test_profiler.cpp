// Sampling-profiler tests (src/obs/profiler.hpp).
//
// Deterministic core: windows opened at 1Hz (the thread-CPU timer needs a
// full second of burn to fire once, which these tests never reach) and
// driven exclusively through sample_now(), so every recorded sample is one
// the test placed — attribution can be asserted exactly, including across
// switch_context, inject-forced abandon->mug migration, and fiber-stack
// recycling. A separate real-timer smoke (skipped under sanitizers) proves
// SIGPROF delivery end to end.
#include <gtest/gtest.h>

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
#include "inject/inject.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/reqtrace.hpp"

// Signal-armed tests misbehave under TSan/ASan (sanitizer interceptors
// own the signal machinery); everything ring-driven still runs there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ICILK_TEST_SANITIZED 1
#endif
#if !defined(ICILK_TEST_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ICILK_TEST_SANITIZED 1
#endif
#endif
#if !defined(ICILK_TEST_SANITIZED)
#define ICILK_TEST_SANITIZED 0
#endif

namespace icilk::obs {
namespace {

// ---------------------------------------------------------------------------
// Attribution word
// ---------------------------------------------------------------------------

TEST(ProfPack, RoundTripsAllFields) {
  const std::uint32_t w = prof_pack(ProfBucket::kTask, 5, 0xBEEF);
  EXPECT_EQ(prof_bucket_of(w), ProfBucket::kTask);
  EXPECT_EQ(prof_level_of(w), 5);
  EXPECT_EQ(prof_tag_of(w), 0xBEEF);
  // Level is 8 bits: 255 survives, 256 wraps (documented truncation).
  EXPECT_EQ(prof_level_of(prof_pack(ProfBucket::kSteal, 255)), 255);
  EXPECT_EQ(prof_level_of(prof_pack(ProfBucket::kSteal, 256)), 0);
  EXPECT_EQ(prof_pack(ProfBucket::kNone, 0, 0), 0u);
}

TEST(ProfPack, BucketNamesAreStable) {
  EXPECT_STREQ(prof_bucket_name(ProfBucket::kTask), "task");
  EXPECT_STREQ(prof_bucket_name(ProfBucket::kSteal), "steal");
  EXPECT_STREQ(prof_bucket_name(ProfBucket::kSleep), "sleep");
  EXPECT_STREQ(prof_bucket_name(ProfBucket::kPreOpCheck), "pre_op_check");
  EXPECT_STREQ(prof_bucket_name(ProfBucket::kReactorWait), "reactor_wait");
  EXPECT_STREQ(prof_bucket_name(ProfBucket::kReactorDrain),
               "reactor_drain");
  EXPECT_STREQ(prof_thread_kind_name(ProfThreadKind::kWorker), "worker");
  EXPECT_STREQ(prof_thread_kind_name(ProfThreadKind::kIo), "io");
}

// ---------------------------------------------------------------------------
// Rendering (hermetic: hand-built reports, no signals)
// ---------------------------------------------------------------------------

ProfileReport sample_report() {
  ProfileReport r;
  r.hz = 99;
  r.period_ns = 10101010;
  r.window_ns = 2000000000;
  r.samples = 3;
  r.dropped = 1;
  r.offcpu_ns = 777;
  r.exe = "/tmp/fake_exe";
  r.modules.push_back({0x400000, 0x500000, "/tmp/fake_exe"});
  r.stacks.push_back({"oncpu;worker;task;l1;0x400123;0x400456", 20202020, 2});
  r.stacks.push_back({"oncpu;worker;sched;steal", 10101010, 1});
  r.stacks.push_back({"offcpu;l1;queueing", 777, 0});
  return r;
}

TEST(ProfRender, FoldedTextCarriesHeadersModulesAndStacks) {
  const std::string t = Profiler::folded_text(sample_report());
  EXPECT_EQ(t.rfind("# icilk-profile v1 folded\n", 0), 0u);
  EXPECT_NE(t.find("# exe /tmp/fake_exe\n"), std::string::npos);
  EXPECT_NE(t.find("# hz 99 period_ns 10101010 window_ns 2000000000\n"),
            std::string::npos);
  EXPECT_NE(t.find("# samples 3 dropped 1 offcpu_ns 777\n"),
            std::string::npos);
  EXPECT_NE(t.find("# module 0x400000 0x500000 /tmp/fake_exe\n"),
            std::string::npos);
  EXPECT_NE(t.find("oncpu;worker;task;l1;0x400123;0x400456 20202020\n"),
            std::string::npos);
  EXPECT_NE(t.find("offcpu;l1;queueing 777\n"), std::string::npos);
}

TEST(ProfRender, JsonTextIsWellFormedEnough) {
  const std::string j = Profiler::json_text(sample_report());
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"hz\":99"), std::string::npos);
  EXPECT_NE(j.find("\"samples\":3"), std::string::npos);
  EXPECT_NE(j.find("\"offcpu_ns\":777"), std::string::npos);
  EXPECT_NE(j.find("\"path\":\"/tmp/fake_exe\""), std::string::npos);
  EXPECT_NE(j.find("\"stack\":\"oncpu;worker;sched;steal\""),
            std::string::npos);
}

TEST(ProfRender, WriteFoldedRoundTrips) {
  const std::string path = testing::TempDir() + "prof_roundtrip.folded";
  ASSERT_TRUE(Profiler::write_folded(sample_report(), path));
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), Profiler::folded_text(sample_report()));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Health fragments
// ---------------------------------------------------------------------------

TEST(ProfHealth, NullProfilerStillAnswers) {
  const std::string j = prof_health_json(nullptr);
  EXPECT_NE(j.find("\"running\":false"), std::string::npos);
  const std::string t = prof_health_stats_text(nullptr, "icilk_", "\r\n");
  EXPECT_NE(t.find("STAT icilk_prof_running 0\r\n"), std::string::npos);
}

TEST(ProfHealth, LiveProfilerReportsState) {
  Profiler::Config cfg;
  cfg.default_hz = 250;
  Profiler p(cfg);
  const std::string j = prof_health_json(&p);
  EXPECT_NE(j.find("\"running\":false"), std::string::npos);
  EXPECT_NE(j.find("\"hz\":250"), std::string::npos);
  EXPECT_NE(j.find("\"windows\":0"), std::string::npos);
  const std::string t = prof_health_stats_text(&p, "icilk_", "\r\n");
  EXPECT_NE(t.find("STAT icilk_prof_hz 250\r\n"), std::string::npos);
  EXPECT_NE(t.find("STAT icilk_prof_windows 0\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Window mechanics (no registered threads required)
// ---------------------------------------------------------------------------

TEST(ProfWindow, WindowsAreExclusiveAndCounted) {
  Profiler p(Profiler::Config{});
  EXPECT_FALSE(p.running());
  ASSERT_TRUE(p.start(99));
  EXPECT_TRUE(p.running());
  EXPECT_EQ(p.hz(), 99);
  EXPECT_FALSE(p.start(99)) << "second open must be refused";
  const ProfileReport r = p.stop();
  EXPECT_FALSE(p.running());
  EXPECT_EQ(r.hz, 99);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_GT(r.window_ns, 0u);
  EXPECT_EQ(p.windows(), 1u);
  // Reopen after close works.
  ASSERT_TRUE(p.start(0));
  EXPECT_EQ(p.hz(), p.config().default_hz);
  p.stop();
  EXPECT_EQ(p.windows(), 2u);
}

TEST(ProfWindow, StopWithoutStartIsEmpty) {
  Profiler p(Profiler::Config{});
  const ProfileReport r = p.stop();
  EXPECT_EQ(r.hz, 0);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_TRUE(r.stacks.empty());
}

TEST(ProfWindow, SampleNowRequiresWindowAndRegistration) {
  Profiler p(Profiler::Config{});
  EXPECT_FALSE(p.sample_now()) << "unregistered thread";
  p.register_current_thread(ProfThreadKind::kOther, 0);
  EXPECT_FALSE(p.sample_now()) << "no window open";
  ASSERT_TRUE(p.start(1));
  EXPECT_TRUE(p.sample_now());
  const ProfileReport r = p.stop();
  EXPECT_EQ(r.samples, 1u);
  p.unregister_current_thread();
  EXPECT_FALSE(p.sample_now()) << "unregistered again";
}

TEST(ProfWindow, ModuleTableCoversTheTestBinary) {
  Profiler p(Profiler::Config{});
  p.register_current_thread(ProfThreadKind::kOther, 0);
  ASSERT_TRUE(p.start(1));
  ASSERT_TRUE(p.sample_now());
  const ProfileReport r = p.stop();
  p.unregister_current_thread();
  ASSERT_FALSE(r.exe.empty());
  bool exe_mapped = false;
  for (const auto& m : r.modules) {
    EXPECT_LT(m.base, m.end);
    if (m.path == r.exe) exe_mapped = true;
  }
  EXPECT_TRUE(exe_mapped) << "the test binary itself must be in the table";
  // The captured PCs of a statically-linked-into-exe test should resolve
  // into SOME module (the sample came from this very code).
  ASSERT_FALSE(r.stacks.empty());
}

// ---------------------------------------------------------------------------
// Off-CPU synthesis (phase deltas; deterministic via req_level_mut)
// ---------------------------------------------------------------------------

/// Feeds one finished level-1 request with the given phase times through
/// the public accounting path (record_request).
void account_request(MetricsRegistry& m, std::uint64_t queueing_ns,
                     std::uint64_t suspended_io_ns,
                     std::uint64_t executing_ns) {
  ReqContext rc;
  rc.priority = 1;
  rc.phase_ns[static_cast<int>(ReqPhase::kQueueing)] = queueing_ns;
  rc.phase_ns[static_cast<int>(ReqPhase::kSuspendedIo)] = suspended_io_ns;
  rc.phase_ns[static_cast<int>(ReqPhase::kExecuting)] = executing_ns;
  m.record_request(rc, queueing_ns + suspended_io_ns + executing_ns);
}

TEST(ProfOffcpu, SynthesizedFromPhaseDeltasExcludingExecuting) {
  MetricsRegistry metrics(4);
  Profiler::Config cfg;
  cfg.metrics = &metrics;
  cfg.num_levels = 4;
  Profiler p(cfg);
  // Pre-window time must NOT appear (the baseline snapshot).
  account_request(metrics, 500, 0, 0);
  ASSERT_TRUE(p.start(99));
  // In-window: 1000ns queueing + 2000ns suspended-on-I/O. Executing time
  // is covered by on-CPU samples; never synthesized.
  account_request(metrics, 1000, 2000, 9999);
  const ProfileReport r = p.stop();
  EXPECT_EQ(r.offcpu_ns, 3000u);
  std::uint64_t queueing = 0, suspended_io = 0;
  bool saw_executing = false;
  for (const auto& s : r.stacks) {
    if (s.key == "offcpu;l1;queueing") queueing = s.weight_ns;
    if (s.key == "offcpu;l1;suspended_io") suspended_io = s.weight_ns;
    if (s.key.find("executing") != std::string::npos) saw_executing = true;
  }
  EXPECT_EQ(queueing, 1000u);
  EXPECT_EQ(suspended_io, 2000u);
  EXPECT_FALSE(saw_executing);
}

// ---------------------------------------------------------------------------
// Fiber-aware attribution on a real runtime (deterministic: 1Hz timers,
// sample_now-driven)
// ---------------------------------------------------------------------------

std::unique_ptr<Runtime> make_rt(int workers, int levels = 4) {
  RuntimeConfig cfg;
  cfg.num_workers = workers;
  cfg.num_levels = levels;
  return std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
}

/// Sum of sample counts for stacks whose key starts with `prefix`.
std::uint64_t count_for_prefix(const ProfileReport& r,
                               const std::string& prefix) {
  std::uint64_t n = 0;
  for (const auto& s : r.stacks) {
    if (s.key.rfind(prefix, 0) == 0) n += s.count;
  }
  return n;
}

struct ProfAttribution : ::testing::Test {
  void SetUp() override {
    if (!profile_compiled_in()) {
      GTEST_SKIP() << "ICILK_PROFILE=OFF: hooks compiled out";
    }
  }
};

TEST_F(ProfAttribution, RuntimeConstructsProfilerAndRegistersWorkers) {
  auto rt = make_rt(2);
  ASSERT_NE(rt->profiler(), nullptr);
  // Workers register in their own prologue; wait for them to come up.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(3);
  while (rt->profiler()->registered_threads() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rt->profiler()->registered_threads(), 2);
  rt->shutdown();
}

TEST_F(ProfAttribution, SamplesInsideTasksAttributeToTaskLevel) {
  auto rt = make_rt(2);
  Profiler* p = rt->profiler();
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->start(1));  // 1Hz: only sample_now records
  std::atomic<int> placed{0};
  std::vector<Future<void>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(rt->submit(2, [&] {
      // The attribution word must say "task at level 2" right now.
      const std::uint32_t w = prof_context();
      EXPECT_EQ(prof_bucket_of(w), ProfBucket::kTask);
      EXPECT_EQ(prof_level_of(w), 2);
      if (p->sample_now()) placed.fetch_add(1);
    }));
  }
  for (auto& f : futs) f.get();
  const ProfileReport r = p->stop();
  EXPECT_EQ(count_for_prefix(r, "oncpu;worker;task;l2"),
            static_cast<std::uint64_t>(placed.load()));
  EXPECT_EQ(count_for_prefix(r, "oncpu;worker;task;l0"), 0u);
  rt->shutdown();
}

TEST_F(ProfAttribution, SchedulerContextRestoredAcrossSwitchContext) {
  // A spawn tree: the word inside every child says task; after the whole
  // tree joins and the submit future resolves, the WORKER threads are
  // back in scheduler context — windowed samples taken from the test
  // thread are not possible, but the word visible to the next task proves
  // run_next restored the bucket before re-entering task code.
  auto rt = make_rt(2);
  Profiler* p = rt->profiler();
  ASSERT_TRUE(p->start(1));
  std::atomic<int> placed{0};
  auto root = rt->submit(1, [&] {
    for (int i = 0; i < 4; ++i) {
      spawn([&] {
        EXPECT_EQ(prof_bucket_of(prof_context()), ProfBucket::kTask);
        EXPECT_EQ(prof_level_of(prof_context()), 1);
        if (p->sample_now()) placed.fetch_add(1);
      });
    }
    sync();
    // Back on the root after sync: still task context at our level.
    EXPECT_EQ(prof_bucket_of(prof_context()), ProfBucket::kTask);
    EXPECT_EQ(prof_level_of(prof_context()), 1);
    if (p->sample_now()) placed.fetch_add(1);
  });
  root.get();
  const ProfileReport r = p->stop();
  EXPECT_EQ(count_for_prefix(r, "oncpu;worker;task;l1"),
            static_cast<std::uint64_t>(placed.load()));
  rt->shutdown();
}

TEST_F(ProfAttribution, AttributionSurvivesForcedAbandonMigration) {
  if (!inject::compiled_in()) GTEST_SKIP() << "ICILK_INJECT=OFF";
  // Force EVERY abandon check to abandon: tasks with spawn boundaries
  // migrate constantly (abandon -> resumable -> mug on another worker).
  // Every sample a task places about itself must still say kTask at the
  // task's level, wherever its fiber landed.
  inject::Config icfg;
  icfg.seed = 77;
  icfg.set_rate(inject::Point::kAbandonCheck, 1000000);
  icfg.set_force(inject::Point::kAbandonCheck, inject::Action::kForce);
  inject::Engine engine(icfg);
  engine.install();

  auto rt = make_rt(2);
  Profiler* p = rt->profiler();
  ASSERT_TRUE(p->start(1));
  std::atomic<int> placed{0};
  std::vector<Future<void>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(rt->submit(1, [&] {
      for (int k = 0; k < 8; ++k) {
        if (p->sample_now()) placed.fetch_add(1);
        spawn([] {});  // boundary: pre_op_check -> forced abandonment
        sync();
        const std::uint32_t w = prof_context();
        EXPECT_EQ(prof_bucket_of(w), ProfBucket::kTask)
            << "context lost across abandon/mug migration";
        EXPECT_EQ(prof_level_of(w), 1);
      }
      if (p->sample_now()) placed.fetch_add(1);
    }));
  }
  for (auto& f : futs) f.get();
  const ProfileReport r = p->stop();
  engine.uninstall();
  EXPECT_EQ(count_for_prefix(r, "oncpu;worker;task;l1"),
            static_cast<std::uint64_t>(placed.load()));
  rt->shutdown();
}

TEST_F(ProfAttribution, AttributionSurvivesFiberRecycling) {
  // Sequential waves of short tasks: later waves run on recycled fiber
  // stacks from the pool. Attribution is TLS-driven, not stack-driven, so
  // recycled stacks must not leak a previous task's identity.
  auto rt = make_rt(1);
  Profiler* p = rt->profiler();
  ASSERT_TRUE(p->start(1));
  std::atomic<int> l0{0}, l3{0};
  for (int wave = 0; wave < 6; ++wave) {
    const int level = (wave % 2 == 0) ? 0 : 3;
    std::vector<Future<void>> futs;
    for (int i = 0; i < 4; ++i) {
      futs.push_back(rt->submit(level, [&, level] {
        EXPECT_EQ(prof_level_of(prof_context()), level);
        if (p->sample_now()) {
          (level == 0 ? l0 : l3).fetch_add(1);
        }
      }));
    }
    for (auto& f : futs) f.get();
  }
  const ProfileReport r = p->stop();
  EXPECT_EQ(count_for_prefix(r, "oncpu;worker;task;l0"),
            static_cast<std::uint64_t>(l0.load()));
  EXPECT_EQ(count_for_prefix(r, "oncpu;worker;task;l3"),
            static_cast<std::uint64_t>(l3.load()));
  rt->shutdown();
}

TEST_F(ProfAttribution, PreOpCheckScopeRestoresTaskWord) {
  // ProfScope's save/restore (the pre_op_check bracket) must return the
  // task's word even after nested scopes.
  auto rt = make_rt(1);
  auto f = rt->submit(2, [] {
    const std::uint32_t before = prof_context();
    {
      ProfScope s1(ProfBucket::kPreOpCheck, 2);
      EXPECT_EQ(prof_bucket_of(prof_context()), ProfBucket::kPreOpCheck);
      {
        ProfScope s2(ProfBucket::kSteal, 2);
        EXPECT_EQ(prof_bucket_of(prof_context()), ProfBucket::kSteal);
      }
      EXPECT_EQ(prof_bucket_of(prof_context()), ProfBucket::kPreOpCheck);
    }
    EXPECT_EQ(prof_context(), before);
  });
  f.get();
  rt->shutdown();
}

// ---------------------------------------------------------------------------
// Real SIGPROF delivery (timers actually firing)
// ---------------------------------------------------------------------------

TEST_F(ProfAttribution, RealTimerSmokeCapturesBusyWorkers) {
  if (ICILK_TEST_SANITIZED) GTEST_SKIP() << "signal-armed: skip under san";
  auto rt = make_rt(2);
  Profiler* p = rt->profiler();
  ASSERT_TRUE(p->start(997));  // fast rate to keep the test short
  std::vector<Future<void>> futs;
  std::atomic<bool> stop{false};
  for (int i = 0; i < 2; ++i) {
    futs.push_back(rt->submit(1, [&] {
      // Burn CPU so the thread-CPU timers actually advance.
      volatile std::uint64_t acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) acc += k;
      }
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& f : futs) f.get();
  const ProfileReport r = p->stop();
  EXPECT_GT(r.samples, 0u) << "no SIGPROF delivered to busy workers";
  EXPECT_GT(count_for_prefix(r, "oncpu;worker;task;l1"), 0u)
      << "busy-loop samples must attribute to the task level";
  // Stacks must carry real frames (the busy loop is compiled code in the
  // test binary; backtrace finds at least the leaf).
  bool any_frames = false;
  for (const auto& s : r.stacks) {
    if (s.key.rfind("oncpu;worker;task;l1;0x", 0) == 0) any_frames = true;
  }
  EXPECT_TRUE(any_frames);
  rt->shutdown();
}

TEST(ProfCompiledOut, RuntimeHasNoProfilerWhenOff) {
  if (profile_compiled_in()) GTEST_SKIP() << "hooks compiled in";
  auto rt = make_rt(1);
  EXPECT_EQ(rt->profiler(), nullptr);
  // Hooks are no-ops but callable.
  prof_enter_bucket(ProfBucket::kSteal, 0);
  EXPECT_EQ(prof_context(), 0u);
  rt->submit(0, [] {}).get();
  rt->shutdown();
}

}  // namespace
}  // namespace icilk::obs
