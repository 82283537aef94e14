#include "obs/spanprof.hpp"

#if ICILK_SPANPROF_ENABLED

#include <atomic>

#include "concurrent/clock.hpp"
#include "obs/thread_ctx.hpp"

namespace icilk::obs {

namespace {

/// Burden EWMA in ns, alpha = 1/8, seeded lazily by the first sample.
/// One process-wide estimator: scheduler overhead is a property of the
/// host + build, not of any single runtime instance.
std::atomic<std::uint64_t> g_burden_ewma{0};

}  // namespace

SpanAcc* sp_strand_now() noexcept {
  ThreadCtx& c = thread_ctx();
  SpanAcc* acc = c.sp_acc;
  if (acc == nullptr) return nullptr;
  const std::uint64_t now = c.sp_precise ? now_cpu_ns() : ticks_to_ns(now_ticks());
  const std::uint64_t e = now - c.sp_start_ns;
  c.sp_start_ns = now;
  acc->work += e;
  acc->depth += e;
  acc->bdepth += e;
  return acc;
}

void sp_note_overhead(std::uint64_t delay_ns) noexcept {
  std::uint64_t prev = g_burden_ewma.load(std::memory_order_relaxed);
  const std::uint64_t next =
      prev == 0 ? delay_ns : prev - (prev >> 3) + (delay_ns >> 3);
  // Racy losers just drop a sample; the EWMA doesn't care.
  g_burden_ewma.store(next, std::memory_order_relaxed);
  (void)prev;
}

std::uint64_t sp_overhead_est() noexcept {
  return g_burden_ewma.load(std::memory_order_relaxed);
}

}  // namespace icilk::obs

#endif  // ICILK_SPANPROF_ENABLED
