// Regression tests for the completion publish-batch window and the
// worker-adopts-epoll handoff (core/idle_poller.hpp).
//
// The failure mode these pin down: a wake that set_bit defers into a
// thread's batch window must ALWAYS be issued by publish_batch_end — a
// dropped flush strands sleeping workers with published-but-unannounced
// work, which shows up as a hang (caught by the ctest timeout), not a
// wrong value. The ordering test is meant to run under TSan (labelled
// `tsan` so the sanitizer CI job picks it up): the batch machinery is
// thread-local state interleaved with seq_cst bitfield publishes, exactly
// the shape where an ordering bug is invisible to plain runs.
//
// The batch window and the idle-poller handoff live in the shared
// IdleWakeEngine (core/policy/idle_wake.hpp), so every suite here runs
// over both sleeping schedulers: prompt and multiqueue. (Adaptive never
// sleeps — there is no wake to defer.)
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "io/reactor.hpp"

namespace icilk {
namespace {

std::unique_ptr<Runtime> make_named_rt(const char* sched, int workers) {
  RuntimeConfig cfg;
  cfg.num_workers = workers;
  return std::make_unique<Runtime>(cfg, make_scheduler(sched));
}

class PublishBatchTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Runtime> make_rt(int workers) {
    return make_named_rt(GetParam(), workers);
  }
};

// Every wake published inside an external thread's batch window is
// deferred to the window's end; once the workers have gone to sleep, the
// ONLY thing that can run the submitted task is the flush in
// publish_batch_end. A dropped flush deadlocks the get() below.
TEST_P(PublishBatchTest, ForcedSleeperAlwaysWoken) {
  auto rt = make_rt(2);
  rt->submit(0, [] {}).get();  // spin the runtime up once
  for (int round = 0; round < 200; ++round) {
    // Let the workers drain their idle spin and park.
    ::usleep(round % 4 == 0 ? 2000 : 200);
    Future<int> f;
    {
      PublishBatchScope batch(rt->scheduler());
      f = rt->submit(0, [round] { return round; });
      // The window is still open: the wake for f is deferred in OUR
      // thread-local batch, so f must not be waited on in here.
    }
    ASSERT_EQ(f.get(), round);
  }
}

// pending > 1 takes the burst branch of the flush (wake one, let the
// acquire-side wake chain fan out). All futures must complete.
TEST_P(PublishBatchTest, BurstInOneWindowCompletes) {
  auto rt = make_rt(2);
  rt->submit(0, [] {}).get();
  for (int round = 0; round < 100; ++round) {
    ::usleep(500);
    std::vector<Future<int>> fs;
    {
      PublishBatchScope batch(rt->scheduler());
      for (int i = 0; i < 8; ++i) {
        fs.push_back(rt->submit(0, [i] { return i; }));
      }
    }
    for (int i = 0; i < 8; ++i) ASSERT_EQ(fs[i].get(), i);
  }
}

// A window opened for scheduler A must not swallow wakes aimed at
// scheduler B (tests run several runtimes in one process; an I/O thread
// belongs to exactly one). B's submit happens INSIDE A's window and is
// waited on in there — if B's wake were wrongly deferred into A's batch,
// this would deadlock.
TEST_P(PublishBatchTest, WindowIsScopedToItsScheduler) {
  auto rt_a = make_rt(2);
  auto rt_b = make_rt(2);
  rt_a->submit(0, [] {}).get();
  rt_b->submit(0, [] {}).get();
  for (int round = 0; round < 50; ++round) {
    ::usleep(500);
    PublishBatchScope batch(rt_a->scheduler());
    ASSERT_EQ(rt_b->submit(0, [round] { return round; }).get(), round);
  }
}

// TSan target: concurrent external publishers, each with its own batch
// window, racing the workers' sleep/wake cycle. Correctness here is "all
// futures complete and no data race is reported".
TEST_P(PublishBatchTest, ConcurrentWindowsOrdering) {
  auto rt = make_rt(3);
  rt->submit(0, [] {}).get();
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<int> done{0};
  std::vector<std::thread> pubs;
  for (int t = 0; t < kThreads; ++t) {
    pubs.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<Future<int>> fs;
        {
          PublishBatchScope batch(rt->scheduler());
          fs.push_back(rt->submit(0, [t, r] { return t * 1000 + r; }));
          fs.push_back(rt->submit(0, [t, r] { return t * 1000 - r; }));
        }
        EXPECT_EQ(fs[0].get(), t * 1000 + r);
        EXPECT_EQ(fs[1].get(), t * 1000 - r);
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : pubs) th.join();
  EXPECT_EQ(done.load(), kThreads * kRounds);
}

// ---------------------------------------------------------------------------
// Worker-adopts-epoll handoff
// ---------------------------------------------------------------------------

struct PollerFixture {
  explicit PollerFixture(const char* sched) {
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.num_io_threads = 1;
    cfg.worker_io_polling = true;
    rt = std::make_unique<Runtime>(cfg, make_scheduler(sched));
    reactor = std::make_unique<IoReactor>(*rt);
  }
  /// Waits until at least `n` idle workers are parked in the epoll;
  /// false on timeout.
  bool wait_adopted(int timeout_ms = 2000, int n = 1) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (rt->worker_pollers() >= n) return true;
      ::usleep(200);
    }
    return false;
  }
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<IoReactor> reactor;
};

// While a worker is parked inside epoll_wait, a
// compute submit from an external thread has no eventcount sleeper to
// notify; it must reach the worker through the eventfd kick. The kick's
// persistent readability is what makes this lossless — a missed kick
// deadlocks the get().
class PollerHandoffTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PollerHandoffTest, KickReachesAdoptedWorker) {
  PollerFixture fx(GetParam());
  fx.rt->submit(0, [] {}).get();
  int adopted_rounds = 0;
  for (int round = 0; round < 100; ++round) {
    if (fx.wait_adopted(500)) ++adopted_rounds;
    ASSERT_EQ(fx.rt->submit(0, [round] { return round; }).get(), round);
  }
  // The point of the test is the kick path; if the poller never engaged
  // we were testing plain eventcount wakes instead.
  EXPECT_GT(adopted_rounds, 0);
}

// An I/O completion drained BY the adopted worker itself: the batch flush
// nets out the unit of work the drainer takes home, issuing no wake at
// all. The blocked reader must still resume.
TEST_P(PollerHandoffTest, AdoptedWorkerDrainsOwnCompletion) {
  PollerFixture fx(GetParam());
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  for (int round = 0; round < 50; ++round) {
    std::atomic<char> got{0};
    auto f = fx.rt->submit(0, [&] {
      char c = 0;
      EXPECT_EQ(fx.reactor->read_some(fds[0], &c, 1), 1);
      got.store(c, std::memory_order_release);
    });
    // Wait until the reader has parked (and, usually, a worker poller
    // covers the epoll), then complete it from outside.
    fx.wait_adopted(200);
    const char payload = static_cast<char>('a' + round % 26);
    ASSERT_EQ(::write(fds[1], &payload, 1), 1);
    f.get();
    EXPECT_EQ(got.load(std::memory_order_acquire), payload);
  }
  fx.reactor->close_fd(fds[0]);
  ::close(fds[1]);
}

// Every idle worker parks in the epoll, not just one: with two readers
// suspended, both workers are parked at once. Each outside pipe write wakes
// one of them (the kernel's exclusive epoll wake) and both readers resume;
// with both parked again, an external submit has no eventcount sleeper to
// notify and must reach one of them through the kick.
TEST_P(PollerHandoffTest, TwoParkedWorkersResumeBothReaders) {
  PollerFixture fx(GetParam());
  int a[2], b[2];
  ASSERT_EQ(::pipe2(a, O_NONBLOCK | O_CLOEXEC), 0);
  ASSERT_EQ(::pipe2(b, O_NONBLOCK | O_CLOEXEC), 0);
  const auto reader = [&fx](int fd) {
    char c = 0;
    EXPECT_EQ(fx.reactor->read_some(fd, &c, 1), 1);
    return c;
  };
  for (int round = 0; round < 20; ++round) {
    auto fa = fx.rt->submit(0, [&] { return reader(a[0]); });
    auto fb = fx.rt->submit(0, [&] { return reader(b[0]); });
    ASSERT_TRUE(fx.wait_adopted(2000, 2)) << "round " << round;
    const char ca = static_cast<char>('a' + round);
    const char cb = static_cast<char>('A' + round);
    ASSERT_EQ(::write(a[1], &ca, 1), 1);
    ASSERT_EQ(::write(b[1], &cb, 1), 1);
    EXPECT_EQ(fa.get(), ca);
    EXPECT_EQ(fb.get(), cb);
    ASSERT_TRUE(fx.wait_adopted(2000, 2)) << "round " << round;
    ASSERT_EQ(fx.rt->submit(0, [round] { return round; }).get(), round);
  }
  fx.reactor->close_fd(a[0]);
  fx.reactor->close_fd(b[0]);
  ::close(a[1]);
  ::close(b[1]);
}

// Coverage while every worker is busy. Both workers grind level-0
// spawn/sync trees that never go idle; a level-1 reader arms its read from
// a worker (which no longer wakes an I/O thread) and suspends. A
// standing-by I/O thread must notice that no worker is parked and poll, so
// an outside write resumes the reader within kResumeBound — the standby
// re-check is 200 µs and the grinders' promptness checks pick the level-1
// deque up at their next spawn. If coverage waited for a worker to go
// idle, the reader would not run until the grinders stop.
TEST_P(PollerHandoffTest, AllBusyWorkersStillResumeReader) {
  constexpr auto kResumeBound = std::chrono::milliseconds(50);
  PollerFixture fx(GetParam());
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  for (int round = 0; round < 5; ++round) {
    std::atomic<bool> stop{false};
    std::vector<Future<void>> grinders;
    for (int g = 0; g < 2; ++g) {
      grinders.push_back(fx.rt->submit(0, [&stop] {
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 2; ++i) {
            spawn([] {
              volatile int x = 0;
              for (int k = 0; k < 200; ++k) x = x + k;
            });
          }
          sync();
        }
      }));
    }
    std::atomic<bool> armed{false};
    std::atomic<std::int64_t> resumed_ns{0};
    auto reader = fx.rt->submit(1, [&] {
      armed.store(true, std::memory_order_release);
      char c = 0;
      EXPECT_EQ(fx.reactor->read_some(fds[0], &c, 1), 1);
      resumed_ns.store(std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count(),
                       std::memory_order_release);
    });
    while (!armed.load(std::memory_order_acquire)) ::usleep(100);
    ::usleep(20000);  // the reader is parked in the fd table by now
    EXPECT_EQ(fx.rt->worker_pollers(), 0) << "a worker went idle";
    const auto t0 = std::chrono::steady_clock::now();
    const char payload = 'g';
    ASSERT_EQ(::write(fds[1], &payload, 1), 1);
    while (resumed_ns.load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2)) {
      ::usleep(100);
    }
    const std::int64_t done = resumed_ns.load(std::memory_order_acquire);
    stop.store(true, std::memory_order_relaxed);
    for (auto& f : grinders) f.get();
    reader.get();
    ASSERT_NE(done, 0) << "reader never resumed while workers were busy";
    const auto latency = std::chrono::steady_clock::duration(done) -
                         t0.time_since_epoch();
    EXPECT_LT(latency, kResumeBound) << "round " << round;
  }
  fx.reactor->close_fd(fds[0]);
  ::close(fds[1]);
}

INSTANTIATE_TEST_SUITE_P(SleepingSchedulers, PublishBatchTest,
                         ::testing::Values("prompt", "multiqueue"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(SleepingSchedulers, PollerHandoffTest,
                         ::testing::Values("prompt", "multiqueue"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace icilk
