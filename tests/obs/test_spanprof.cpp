// Work/span profiler correctness against spawn trees with closed-form
// work and span (obs/spanprof.hpp):
//
//   balanced binary tree of depth d, each node burning B of CPU:
//       work = (2^(d+1) - 1) * B      span = (d+1) * B
//   serial spawn-sync chain of n nodes:   work = n*B,  span = n*B,  par = 1
//   flat fan-out of k children:           work = k*B,  span = B,    par = k
//
// The runtimes here run with spanprof_precise=true (thread-CPU strand
// clock) and the burn loops spin on the same now_cpu_ns() — preemption
// cannot skew either side even on a 1-core CI host with 4 oversubscribed
// workers, and the measured values must land within the ISSUE's 5%
// tolerance. (The default TSC strand clock is priced by
// bench/micro_spanprof instead; its work readings include preemption and
// have no closed form on an oversubscribed host.) The forced
// abandonment case re-runs the tree while every pre-op check migrates the
// root (src/inject/), proving the accumulators survive abandon/mug
// adoption.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "concurrent/clock.hpp"
#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "core/runtime.hpp"
#include "inject/inject.hpp"
#include "io/reactor.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spanprof.hpp"

namespace icilk {
namespace {

using namespace std::chrono_literals;

/// Burns ~ns of CPU time, measured on the calling thread's CPU clock —
/// the strand clock in spanprof_precise mode — so the amount burned is
/// exactly what the strand timer will charge.
void burn_cpu(std::uint64_t ns) {
  const std::uint64_t end = now_cpu_ns() + ns;
  volatile std::uint64_t sink = 0;
  while (now_cpu_ns() < end) {
    for (int i = 0; i < 64; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
}

/// Balanced binary tree: every node burns B, inner nodes spawn one child
/// and recurse inline for the other, then sync.
void tree_node(int d, std::uint64_t burn_ns) {
  burn_cpu(burn_ns);
  if (d > 0) {
    spawn([d, burn_ns] { tree_node(d - 1, burn_ns); });
    tree_node(d - 1, burn_ns);
    sync();
  }
}

struct SpanprofTest : ::testing::Test {
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
    cfg.spanprof_precise = true;  // closed forms need the thread-CPU clock
    return std::make_unique<Runtime>(cfg,
                                     std::make_unique<PromptScheduler>());
  }

  /// Runs `body` as one traced request at `level` and returns the single
  /// recorded SpWorst entry (exact per-request values, not histogram
  /// buckets).
  obs::MetricsRegistry::SpWorst run_request(Runtime& rt, Priority level,
                                            Closure body) {
    rt.submit(level, [&] {
      rt.req_begin();
      body();
      rt.req_end();
    }).get();
    const auto worst = rt.metrics().worst_parallelism(level);
    EXPECT_EQ(worst.size(), 1u);
    return worst.empty() ? obs::MetricsRegistry::SpWorst{} : worst[0];
  }

  static void expect_within(std::uint64_t measured, std::uint64_t expect,
                            double tol, const char* what) {
    const double lo = static_cast<double>(expect) * (1.0 - tol);
    const double hi = static_cast<double>(expect) * (1.0 + tol);
    EXPECT_GE(static_cast<double>(measured), lo) << what;
    EXPECT_LE(static_cast<double>(measured), hi) << what;
  }

  std::unique_ptr<inject::Engine> engine;
};

TEST_F(SpanprofTest, BalancedTreeMatchesClosedForm) {
  auto rt = make_rt(4);
  constexpr int kDepth = 4;
  constexpr std::uint64_t kBurn = 2'000'000;  // 2ms per node
  const auto w = run_request(*rt, 2, [] { tree_node(kDepth, kBurn); });
  // 2^(d+1)-1 = 31 nodes, span chain d+1 = 5 nodes.
  expect_within(w.work_ns, 31 * kBurn, 0.05, "tree work");
  expect_within(w.span_ns, 5 * kBurn, 0.05, "tree span");
  // Average parallelism 31/5 = 6.2.
  expect_within(w.par_milli, 6200, 0.05, "tree parallelism");
  EXPECT_GE(w.bspan_ns, w.span_ns);
  rt->shutdown();
}

TEST_F(SpanprofTest, SerialChainHasUnitParallelism) {
  auto rt = make_rt(4);
  constexpr int kN = 8;
  constexpr std::uint64_t kBurn = 2'000'000;
  const auto w = run_request(*rt, 2, [] {
    for (int i = 0; i < kN; ++i) {
      spawn([] { burn_cpu(kBurn); });
      sync();  // join immediately: no two children ever overlap
    }
  });
  expect_within(w.work_ns, kN * kBurn, 0.05, "chain work");
  expect_within(w.span_ns, kN * kBurn, 0.05, "chain span");
  expect_within(w.par_milli, 1000, 0.05, "chain parallelism");
  rt->shutdown();
}

TEST_F(SpanprofTest, FlatFanOutSpanIsOneNode) {
  auto rt = make_rt(4);
  constexpr int kFan = 8;
  constexpr std::uint64_t kBurn = 5'000'000;  // 5ms per child
  const auto w = run_request(*rt, 2, [] {
    for (int i = 0; i < kFan; ++i) {
      spawn([] { burn_cpu(kBurn); });
    }
    sync();
  });
  // Span is ONE child (they all start at the root's depth), regardless of
  // how many workers actually ran them — span is structure, not schedule.
  expect_within(w.work_ns, kFan * kBurn, 0.05, "fanout work");
  expect_within(w.span_ns, kBurn, 0.05, "fanout span");
  expect_within(w.par_milli, 1000 * kFan, 0.05, "fanout parallelism");
  rt->shutdown();
}

TEST_F(SpanprofTest, FutureRoutineJoinsWorkAndSpan) {
  auto rt = make_rt(4);
  constexpr std::uint64_t kBurn = 4'000'000;
  const auto w = run_request(*rt, 2, [] {
    auto f = fut_create([] { burn_cpu(kBurn); });
    burn_cpu(kBurn);  // overlaps the routine
    f.get();
  });
  expect_within(w.work_ns, 2 * kBurn, 0.05, "future work");
  expect_within(w.span_ns, kBurn, 0.07, "future span");
  rt->shutdown();
}

// An externally-completed future (reactor timer) contributes its WALL wait
// to the span — the serial floor of an I/O-bound request — while work
// stays at the (tiny) CPU actually burned, so parallelism drops below 1.
TEST_F(SpanprofTest, ExternalIoWaitIsSerialFloor) {
  auto rt = make_rt(2);
  auto reactor = std::make_unique<IoReactor>(*rt);
  const auto w = run_request(*rt, 2, [&] {
    reactor->async_sleep(5ms).get();
  });
  EXPECT_GE(w.span_ns, 4'000'000u);  // slept >= ~5ms
  EXPECT_LT(w.work_ns, w.span_ns);   // nearly no CPU: I/O bound
  EXPECT_LT(w.par_milli, 1000u);
  reactor.reset();
  rt->shutdown();
}

TEST_F(SpanprofTest, SurvivesForcedAbandonmentAndMug) {
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
  constexpr int kDepth = 3;
  constexpr std::uint64_t kBurn = 2'000'000;
  const auto w = run_request(*rt, 1, [] { tree_node(kDepth, kBurn); });
  engine->uninstall();
  EXPECT_GT(engine->injected_at(inject::Point::kAbandonCheck), 0u);

  // The accumulators must survive migration: 15 nodes of work, 4 of span,
  // still within tolerance even though every pre-op check abandoned the
  // active deque into the mugging queue.
  expect_within(w.work_ns, 15 * kBurn, 0.05, "abandoned tree work");
  expect_within(w.span_ns, 4 * kBurn, 0.05, "abandoned tree span");
  // The burdened span must reflect the constant migration churn.
  EXPECT_GE(w.bspan_ns, w.span_ns);
  rt->shutdown();
}

TEST_F(SpanprofTest, RuntimeKillSwitchRecordsNothing) {
  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.num_levels = 8;
  cfg.spanprof_enabled = false;  // runtime kill switch
  auto rt = std::make_unique<Runtime>(cfg,
                                      std::make_unique<PromptScheduler>());
  rt->submit(2, [&] {
    rt->req_begin();
    spawn([] { burn_cpu(500'000); });
    sync();
    rt->req_end();
  }).get();
  EXPECT_EQ(rt->metrics().sp_level(2), nullptr);
  // Latency attribution keeps working independently of the kill switch.
  const auto* r = rt->metrics().req_level(2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->count.load(), 1u);
  rt->shutdown();
}

// Cumulative totals feed the timeseries per-epoch deltas: two requests
// must move sp_total_requests by exactly 2 and the work/span totals by the
// recorded amounts.
TEST_F(SpanprofTest, CumulativeTotalsTrackRecords) {
  auto rt = make_rt(2);
  const std::uint64_t reqs0 = rt->metrics().sp_total_requests();
  run_request(*rt, 2, [] { burn_cpu(1'000'000); });
  rt->submit(3, [&] {
    rt->req_begin();
    burn_cpu(1'000'000);
    rt->req_end();
  }).get();
  EXPECT_EQ(rt->metrics().sp_total_requests(), reqs0 + 2);
  EXPECT_GE(rt->metrics().sp_total_work_ns(), 2'000'000u * 95 / 100);
  EXPECT_GE(rt->metrics().sp_total_span_ns(), 2'000'000u * 95 / 100);
  rt->shutdown();
}

}  // namespace
}  // namespace icilk
