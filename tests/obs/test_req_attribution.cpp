// Runtime-level request attribution: the ReqContext must survive every
// way a request's root chain can move — suspend at a sync, forced
// abandonment into the mugging queue, a mug by a different worker, and an
// I/O completion handled on a reactor I/O thread — and its phase
// durations must telescope exactly to the end-to-end latency that the
// MetricsRegistry folds in. Determinism comes from src/inject/'s forced
// kAbandonCheck crosspoint.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "core/runtime.hpp"
#include "inject/inject.hpp"
#include "io/reactor.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"

namespace icilk {
namespace {

using namespace std::chrono_literals;

struct ReqAttributionTest : ::testing::Test {
  void SetUp() override {
    if (!obs::compiled_in()) {
      GTEST_SKIP() << "ICILK_OBS=OFF: hooks compiled out";
    }
  }
  void TearDown() override { engine.reset(); }

  std::unique_ptr<Runtime> make_rt(int workers) {
    RuntimeConfig cfg;
    cfg.num_workers = workers;
    cfg.num_levels = 8;
    return std::make_unique<Runtime>(cfg,
                                     std::make_unique<PromptScheduler>());
  }

  std::unique_ptr<inject::Engine> engine;
};

// A request whose root parks at a sync while children run must come back
// with its context intact and record a suspended_sync phase.
TEST_F(ReqAttributionTest, SurvivesSyncSuspension) {
  auto rt = make_rt(4);
  std::uint64_t rid = 0;
  rt->submit(2, [&] {
    rid = rt->req_begin();
    for (int i = 0; i < 4; ++i) {
      spawn([] {
        volatile std::uint64_t x = 0;
        for (int k = 0; k < 200000; ++k) x = x + static_cast<std::uint64_t>(k);
      });
    }
    sync();
    rt->req_end();
  }).get();
  ASSERT_NE(rid, 0u);

  const auto* s = rt->metrics().req_level(2);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count.load(), 1u);
  const auto worst = rt->metrics().worst_requests(2);
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(worst[0].id, rid);
  // Telescoping invariant survives the round trip into the registry.
  EXPECT_EQ(worst[0].phase_sum_ns(), worst[0].end_ns - worst[0].begin_ns);
  rt->shutdown();
}

// Forced abandonment (inject crosspoint): the root deque goes Active ->
// Resumable -> mugging queue -> mugged, possibly by another worker. The
// context must ride along and the runnable (aging) phase must show up.
TEST_F(ReqAttributionTest, SurvivesForcedAbandonmentAndMug) {
  if (!inject::compiled_in()) {
    GTEST_SKIP() << "ICILK_INJECT=OFF: cannot force abandonment";
  }
  inject::Config icfg;
  icfg.seed = 11;
  icfg.set_rate(inject::Point::kAbandonCheck, 1'000'000);  // every check
  icfg.set_force(inject::Point::kAbandonCheck, inject::Action::kForce);
  engine = std::make_unique<inject::Engine>(icfg);
  engine->install();

  auto rt = make_rt(4);
  constexpr int kReqs = 16;
  for (int r = 0; r < kReqs; ++r) {
    rt->submit(1, [&] {
      rt->req_begin();
      for (int i = 0; i < 8; ++i) {
        spawn([] {
          volatile std::uint64_t x = 0;
          for (int k = 0; k < 50000; ++k) x = x + static_cast<std::uint64_t>(k);
        });
      }
      sync();
      rt->req_end();
    }).get();
  }
  engine->uninstall();
  EXPECT_GT(engine->injected_at(inject::Point::kAbandonCheck), 0u);

  const auto* s = rt->metrics().req_level(1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count.load(), kReqs);
  // With every pre-op check forcing an abandonment, the runnable phase
  // (abandoned -> mugged) must have accumulated time somewhere.
  EXPECT_GT(
      s->phase_sum_ns[static_cast<int>(obs::ReqPhase::kRunnable)].load(),
      0u);
  // Per-request exactness survives into the worst-K reservoir.
  const auto worst = rt->metrics().worst_requests(1);
  ASSERT_FALSE(worst.empty());
  for (const auto& w : worst) {
    EXPECT_EQ(w.phase_sum_ns(), w.end_ns - w.begin_ns);
  }
  rt->shutdown();
}

// An I/O suspension must be classified suspended_io (not sync), and the
// wakeup transition is logged by the reactor I/O thread — a negative
// `where` stamp in the hop timeline proves the context crossed onto it.
TEST_F(ReqAttributionTest, SurvivesIoCompletionOnIoThread) {
  // This test asserts the RELAY path: the completion is published by a
  // dedicated I/O thread (negative hop stamp). With worker_io_polling an
  // idle worker may adopt the epoll and drain the completion itself
  // (positive stamp — the optimization working as intended), so pin the
  // classic configuration.
  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.num_levels = 8;
  cfg.worker_io_polling = false;
  auto rt = std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
  auto reactor = std::make_unique<IoReactor>(*rt);
  std::uint64_t rid = 0;
  rt->submit(3, [&] {
    rid = rt->req_begin();
    reactor->async_sleep(3ms).get();
    rt->req_end();
  }).get();
  ASSERT_NE(rid, 0u);

  const auto worst = rt->metrics().worst_requests(3);
  ASSERT_EQ(worst.size(), 1u);
  const obs::ReqContext& rc = worst[0];
  EXPECT_EQ(rc.id, rid);
  EXPECT_GE(rc.phase_ns[static_cast<int>(obs::ReqPhase::kSuspendedIo)],
            2'000'000u);  // slept >= ~3ms
  EXPECT_EQ(rc.phase_sum_ns(), rc.end_ns - rc.begin_ns);
  bool hopped_to_io_thread = false;
  for (std::uint32_t i = 0; i < rc.nhops; ++i) {
    if (rc.hops[i].where < 0 &&
        rc.hops[i].where != obs::ReqHop::kNoWhere) {
      hopped_to_io_thread = true;
      EXPECT_EQ(rc.hops[i].phase, obs::ReqPhase::kRunnable);
    }
  }
  EXPECT_TRUE(hopped_to_io_thread);
  reactor.reset();
  rt->shutdown();
}

// Aggregate invariant across a mixed workload: per-level phase sums must
// equal the per-level total latency sum exactly (the histograms are
// approximate, the atomic sums are not).
TEST_F(ReqAttributionTest, LevelPhaseSumsMatchTotals) {
  auto rt = make_rt(4);
  auto reactor = std::make_unique<IoReactor>(*rt);
  constexpr int kReqs = 12;
  std::uint64_t client_total = 0;
  for (int r = 0; r < kReqs; ++r) {
    const std::uint64_t t0 = now_ns();
    rt->submit(2, [&] {
      rt->req_begin();
      spawn([] {
        volatile std::uint64_t x = 0;
        for (int k = 0; k < 100000; ++k) x = x + static_cast<std::uint64_t>(k);
      });
      if ((r & 1) != 0) reactor->async_sleep(1ms).get();
      sync();
      rt->req_end();
    }).get();
    client_total += now_ns() - t0;
  }
  const auto* s = rt->metrics().req_level(2);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->count.load(), kReqs);
  std::uint64_t phase_total = 0;
  for (int p = 0; p < obs::kReqPhaseCount; ++p) {
    phase_total += s->phase_sum_ns[p].load();
  }
  // Attributed time is bounded by what the client observed (req_begin
  // runs inside the submitted closure) and must be the lion's share.
  EXPECT_LE(phase_total, client_total);
  EXPECT_GT(phase_total, client_total / 2);
  reactor.reset();
  rt->shutdown();
}

}  // namespace
}  // namespace icilk
