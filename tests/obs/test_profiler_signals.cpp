// Signal-interplay regression tests for the sampling profiler
// (src/obs/profiler.hpp): the sa_mask policy against the watchdog's
// SIGUSR2 dump trigger, and EINTR storms under profiling — real SIGPROF
// pressure layered ON TOP of injected syscall EINTRs, proving the
// reactor's retry edges hold when both sources fire at once.
//
// Everything here arms real timers/signals, so the whole file skips under
// TSan/ASan (the deterministic ring/attribution coverage lives in
// test_profiler.cpp and runs everywhere).
#include <gtest/gtest.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "inject/inject.hpp"
#include "io/reactor.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"

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

using namespace std::chrono_literals;

struct ProfSignals : ::testing::Test {
  void SetUp() override {
    if (ICILK_TEST_SANITIZED) {
      GTEST_SKIP() << "signal-armed tests: skip under sanitizers";
    }
    if (!compiled_in()) {
      GTEST_SKIP() << "ICILK_OBS=OFF: hooks compiled out";
    }
  }
};

// The documented sa_mask policy: SIGPROF's handler defers SIGUSR2 (the
// watchdog dump trigger must never nest inside a backtrace) and keeps
// SA_RESTART|SA_SIGINFO set. Asserted against the installed sigaction so
// a refactor cannot silently drop it.
TEST_F(ProfSignals, SigprofHandlerMasksSigusr2) {
  Profiler p(Profiler::Config{});
  ASSERT_TRUE(p.start(99));  // installs the handler (idempotent)
  p.stop();
  struct sigaction sa;
  ASSERT_EQ(::sigaction(SIGPROF, nullptr, &sa), 0);
  ASSERT_NE(sa.sa_flags & SA_SIGINFO, 0);
  EXPECT_NE(sa.sa_flags & SA_RESTART, 0)
      << "SA_RESTART missing: every slow syscall in the process would "
         "see EINTR at the sample rate";
  EXPECT_EQ(::sigismember(&sa.sa_mask, SIGUSR2), 1)
      << "SIGUSR2 must be blocked while the SIGPROF handler runs";
}

// EINTR under profiling: high-rate SIGPROF on the I/O threads PLUS
// injected EINTRs on the read path. epoll_wait is never restarted by the
// kernel regardless of SA_RESTART, so the reactor's epoll loop retries
// for real here; do_syscall's inline retry absorbs the injected ones.
// Every round trip must still deliver its bytes.
TEST_F(ProfSignals, EintrStormUnderProfilingDeliversAllBytes) {
  if (!inject::compiled_in()) GTEST_SKIP() << "ICILK_INJECT=OFF";
  inject::Config icfg;
  icfg.seed = 41;
  icfg.set_rate(inject::Point::kSyscallRead, 500000);
  icfg.set_force(inject::Point::kSyscallRead, inject::Action::kEintr);
  inject::Engine engine(icfg);
  engine.install();

  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.num_io_threads = 2;
  auto rt =
      std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
  auto reactor = std::make_unique<IoReactor>(*rt);
  Profiler* p = rt->profiler();
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->start(997));

  // A CPU-burning task keeps at least one thread's CPU clock ticking so
  // the window records samples even though the I/O round trips themselves
  // are cheap. The timers ride CLOCK_THREAD_CPUTIME_ID, so wall time is
  // irrelevant: the spinner must burn a minimum of actual CPU (~20 timer
  // periods at 997Hz) before the window may close, or a loaded host that
  // starves this thread finishes the 200 rounds with zero samples. The
  // loop body never enters the runtime, so the fiber cannot migrate and
  // the thread CPU clock baseline stays valid.
  std::atomic<bool> stop_spin{false};
  auto spinner = rt->submit(1, [&] {
    timespec t0{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    const auto cpu_ns = [&t0] {
      timespec t{};
      ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
      return (t.tv_sec - t0.tv_sec) * 1000000000LL +
             (t.tv_nsec - t0.tv_nsec);
    };
    volatile std::uint64_t acc = 0;
    while (!stop_spin.load(std::memory_order_relaxed) ||
           cpu_ns() < 20'000'000LL) {
      for (int k = 0; k < 4096; ++k) acc += k;
    }
  });

  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  std::uint64_t injected = 0;
  char buf[16];
  for (int round = 0; round < 200; ++round) {
    ASSERT_EQ(::write(fds[1], "steady", 6), 6);
    const ssize_t n = rt->submit(0, [&] {
                          return reactor->read_exact(fds[0], buf, 6);
                        }).get();
    ASSERT_EQ(n, 6) << "round " << round;
    ASSERT_EQ(std::string(buf, 6), "steady");
    injected = engine.injected_at(inject::Point::kSyscallRead);
  }
  stop_spin.store(true);
  spinner.get();
  const ProfileReport rep = p->stop();
  engine.uninstall();
  EXPECT_GT(injected, 0u) << "no EINTR was actually injected";
  // The I/O threads were registered and the window was open the whole
  // time; with 200 reactor round trips at 997Hz there is CPU to sample.
  EXPECT_GT(rep.samples, 0u);
  ::close(fds[0]);
  ::close(fds[1]);
  reactor.reset();
  rt->shutdown();
}

// SIGPROF + SIGUSR2 concurrently: a profiling window at full rate while
// the watchdog's dump path (SIGUSR2-triggered bundles) fires repeatedly.
// The mask policy makes the nesting one-directional; nothing may deadlock
// or crash, and both subsystems must complete their jobs.
TEST_F(ProfSignals, ConcurrentWatchdogDumpsDuringProfileWindow) {
  if (!compiled_in()) GTEST_SKIP() << "ICILK_OBS=OFF";
  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.num_levels = 4;
  cfg.watchdog_enabled = true;
  cfg.watchdog_period_ms = 2;
  cfg.watchdog_bundle_dir = testing::TempDir();
  auto rt =
      std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
  ASSERT_NE(rt->watchdog(), nullptr);
  Profiler* p = rt->profiler();
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->start(997));

  std::atomic<bool> stop{false};
  std::vector<Future<void>> futs;
  for (int i = 0; i < 2; ++i) {
    futs.push_back(rt->submit(1, [&] {
      volatile std::uint64_t acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) acc += k;
      }
    }));
  }
  // Dump bundles from outside while SIGPROF hammers the workers.
  std::vector<std::string> bundles;
  for (int i = 0; i < 5; ++i) {
    const std::string path = rt->watchdog()->dump_now("prof_interplay");
    if (!path.empty()) bundles.push_back(path);
    std::this_thread::sleep_for(20ms);
  }
  stop.store(true);
  for (auto& f : futs) f.get();
  const ProfileReport rep = p->stop();
  EXPECT_GT(rep.samples, 0u);
  EXPECT_FALSE(bundles.empty()) << "dumps starved under profiling";
  for (const auto& b : bundles) std::remove(b.c_str());
  rt->shutdown();
}

// Back-to-back windows with threads joining/leaving between them: the
// register/unregister lifecycle under an active handler installation.
TEST_F(ProfSignals, RepeatedWindowsAcrossRuntimeLifecycles) {
  for (int i = 0; i < 3; ++i) {
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    auto rt =
        std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
    Profiler* p = rt->profiler();
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(p->start(499));
    std::vector<Future<void>> futs;
    for (int k = 0; k < 16; ++k) {
      futs.push_back(rt->submit(k % 2, [] {
        volatile std::uint64_t acc = 0;
        for (int j = 0; j < 200000; ++j) acc += j;
      }));
    }
    for (auto& f : futs) f.get();
    p->stop();
    rt->shutdown();  // workers unregister with the handler still installed
  }
  SUCCEED();
}

}  // namespace
}  // namespace icilk::obs
