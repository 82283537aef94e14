// ReqContext unit tests: the phase machine's telescoping-sum invariant,
// the hop timeline (including overflow accounting), the I/O-hint routing
// used by the suspend hook, and pooled allocation. These drive the class
// directly, so they run identically under ICILK_REQTRACE=OFF (only the
// runtime hook sites compile out, not the class).
#include <gtest/gtest.h>

#include <thread>

#include "concurrent/clock.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"

namespace icilk::obs {
namespace {

void burn(int us) {
  const std::uint64_t until = now_ns() + static_cast<std::uint64_t>(us) * 1000;
  while (now_ns() < until) {
  }
}

TEST(ReqContext, PhaseDurationsTelescopeToTotal) {
  ReqContext* rc = ReqContext::create();
  rc->start(42, 3, 0);
  EXPECT_EQ(rc->id, 42u);
  EXPECT_EQ(rc->priority, 3u);
  EXPECT_EQ(rc->phase(), ReqPhase::kQueueing);

  burn(50);
  rc->enter(ReqPhase::kExecuting);
  burn(50);
  rc->enter(ReqPhase::kSuspendedSync);
  burn(50);
  rc->enter(ReqPhase::kRunnable);
  burn(50);
  rc->enter(ReqPhase::kExecuting);
  burn(50);
  const std::uint64_t total = rc->close();

  EXPECT_GT(total, 0u);
  // Exact, not approximate: each transition closes the old phase at the
  // timestamp that opens the next one.
  EXPECT_EQ(rc->phase_sum_ns(), total);
  EXPECT_EQ(total, rc->end_ns - rc->begin_ns);
  for (ReqPhase p : {ReqPhase::kQueueing, ReqPhase::kExecuting,
                     ReqPhase::kRunnable, ReqPhase::kSuspendedSync}) {
    EXPECT_GT(rc->phase_ns[static_cast<int>(p)], 0u)
        << req_phase_name(p);
  }
  EXPECT_EQ(rc->phase_ns[static_cast<int>(ReqPhase::kSuspendedIo)], 0u);
  ReqContext::destroy(rc);
}

TEST(ReqContext, ExplicitArrivalBackdatesQueueing) {
  ReqContext* rc = ReqContext::create();
  const std::uint64_t arrival = now_ns() - 1'000'000;  // 1ms ago
  rc->start(1, 0, arrival);
  rc->enter(ReqPhase::kExecuting);
  const std::uint64_t total = rc->close();
  EXPECT_GE(rc->phase_ns[static_cast<int>(ReqPhase::kQueueing)], 900'000u);
  EXPECT_EQ(rc->phase_sum_ns(), total);
  ReqContext::destroy(rc);
}

TEST(ReqContext, HopTimelineRecordsTransitions) {
  ReqContext* rc = ReqContext::create();
  rc->start(7, 1, 0);
  ASSERT_GE(rc->nhops, 1u);  // start logs the queueing hop
  const std::uint32_t base = rc->nhops;
  rc->enter(ReqPhase::kExecuting);
  rc->enter(ReqPhase::kSuspendedSync);
  EXPECT_EQ(rc->nhops, base + 2);
  EXPECT_EQ(rc->hops[0].phase, ReqPhase::kQueueing);
  EXPECT_EQ(rc->hops[base].phase, ReqPhase::kExecuting);
  EXPECT_EQ(rc->hops[base + 1].phase, ReqPhase::kSuspendedSync);
  EXPECT_GE(rc->hops[base + 1].t_ns, rc->hops[base].t_ns);

  // Same-phase re-entry on the same thread is a no-op, not a hop.
  const std::uint32_t before = rc->nhops;
  rc->enter(ReqPhase::kSuspendedSync);
  EXPECT_EQ(rc->nhops, before);
  rc->close();
  ReqContext::destroy(rc);
}

TEST(ReqContext, HopOverflowCountsDrops) {
  ReqContext* rc = ReqContext::create();
  rc->start(9, 0, 0);
  for (int i = 0; i < 3 * ReqContext::kMaxHops; ++i) {
    rc->enter((i & 1) != 0 ? ReqPhase::kRunnable : ReqPhase::kExecuting);
  }
  EXPECT_EQ(rc->nhops, static_cast<std::uint32_t>(ReqContext::kMaxHops));
  EXPECT_GT(rc->hops_dropped, 0u);
  // Accumulators keep counting past the timeline cap.
  const std::uint64_t total = rc->close();
  EXPECT_EQ(rc->phase_sum_ns(), total);
  ReqContext::destroy(rc);
}

// The worst-K STAT line carries the whole timeline, however long: a full
// kMaxHops request with ms-scale offsets and dropped hops renders every
// hop plus the ",..." marker that flags the overflow.
TEST(ReqContext, WorstLineKeepsEveryHopAndDropMarker) {
  ReqContext rc;
  rc.id = 4242;
  rc.priority = 1;
  rc.begin_ns = 1000;
  for (int i = 0; i < ReqContext::kMaxHops; ++i) {
    rc.hops[i] = {rc.begin_ns + static_cast<std::uint64_t>(i) * 1500000 +
                      123456789,
                  ReqPhase::kSuspendedSync, ReqHop::kNoWhere};
  }
  rc.nhops = ReqContext::kMaxHops;
  rc.hops_dropped = 5;
  rc.end_ns = rc.begin_ns + 200000000;
  MetricsRegistry m(2);
  m.record_request(rc, rc.end_ns - rc.begin_ns);

  const std::string text = latency_stats_text(m, "icilk_", "\n");
  const std::size_t at = text.find("STAT icilk_l1_worst0 id=4242 ");
  ASSERT_NE(at, std::string::npos) << text;
  const std::string line = text.substr(at, text.find('\n', at) - at);
  std::size_t hops = 0;
  for (std::size_t p = line.find("suspended_sync@"); p != std::string::npos;
       p = line.find("suspended_sync@", p + 1)) {
    ++hops;
  }
  EXPECT_EQ(hops, static_cast<std::size_t>(ReqContext::kMaxHops)) << line;
  EXPECT_NE(line.find("+157956us"), std::string::npos) << line;  // hop 24
  ASSERT_GE(line.size(), 4u);
  EXPECT_EQ(line.substr(line.size() - 4), ",...") << line;
}

TEST(ReqContext, IoHintRoutesNextSuspension) {
  ReqContext* rc = ReqContext::create();
  rc->start(11, 2, 0);
  rc->enter(ReqPhase::kExecuting);

  // No hint: a suspension is a sync wait.
  EXPECT_FALSE(rc->take_io_hint());

  // Hint set (what req_hook_io_arm does on the reactor arm path): the
  // next take consumes it exactly once.
  rc->set_io_hint();
  EXPECT_TRUE(rc->take_io_hint());
  EXPECT_FALSE(rc->take_io_hint());
  rc->close();
  ReqContext::destroy(rc);
}

TEST(ReqContext, StartResetsRecycledContext) {
  ReqContext* rc = ReqContext::create();
  rc->start(1, 5, 0);
  rc->enter(ReqPhase::kExecuting);
  rc->enter(ReqPhase::kSuspendedIo);
  rc->close();
  ReqContext::destroy(rc);

  // The pool may hand the same object back; start() must fully reset it.
  ReqContext* rc2 = ReqContext::create();
  rc2->start(2, 1, 0);
  EXPECT_EQ(rc2->id, 2u);
  EXPECT_EQ(rc2->priority, 1u);
  EXPECT_EQ(rc2->phase(), ReqPhase::kQueueing);
  EXPECT_EQ(rc2->hops_dropped, 0u);
  EXPECT_EQ(rc2->phase_sum_ns(), 0u);
  for (int i = 0; i < kReqPhaseCount; ++i) EXPECT_EQ(rc2->phase_ns[i], 0u);
  rc2->close();
  ReqContext::destroy(rc2);
}

TEST(ReqContext, PoolRecyclesInSteadyState) {
  // Warm the freelist, then check create/destroy cycles stop missing.
  ReqContext* warm = ReqContext::create();
  ReqContext::destroy(warm);
  const auto before = ReqContext::pool_stats();
  for (int i = 0; i < 64; ++i) {
    ReqContext* rc = ReqContext::create();
    rc->start(static_cast<std::uint64_t>(i), 0, 0);
    rc->close();
    ReqContext::destroy(rc);
  }
  const auto after = ReqContext::pool_stats();
  if (before.recycled > 0 || after.recycled > before.recycled) {
    // Pooling enabled (ICILK_IO_POOL=1): steady state allocates nothing.
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GE(after.hits, before.hits + 64);
  } else {
    // Pooling compiled out: every create is a miss, by design.
    EXPECT_GE(after.misses, before.misses + 64);
  }
}

TEST(ReqHooks, NullAndNonOwnerAreNoOps) {
  // The hooks must tolerate nullptr (untagged work) and owner=false
  // (spawned children of a request) without touching the context.
  req_hook_suspend(nullptr, true);
  req_hook_runnable(nullptr, true);

  ReqContext* rc = ReqContext::create();
  rc->start(3, 0, 0);
  const std::uint32_t hops = rc->nhops;
  req_hook_suspend(rc, /*owner=*/false);
  req_hook_runnable(rc, /*owner=*/false);
  EXPECT_EQ(rc->phase(), ReqPhase::kQueueing);
  EXPECT_EQ(rc->nhops, hops);
  rc->close();
  ReqContext::destroy(rc);
}

}  // namespace
}  // namespace icilk::obs
