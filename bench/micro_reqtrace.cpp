// Micro-benchmark: the request-tracing hot path.
//
// Measures, with a counting global operator new (the same trick as
// micro_reactor_ops), three shapes:
//
//   begin_end    ReqContext create/start/enter/close/destroy — the cost a
//                server pays per request just for attribution.
//   transition   a single enter() phase change (the per-suspension cost).
//   runtime      Runtime::req_begin/req_end from task code, including the
//                dispatch bracket's request binding.
//
// The pooled allocator makes steady-state begin/end allocation-free; this
// binary ASSERTS that (exit 1 on violation) when pools are on, so the
// zero-allocs-per-request claim in DESIGN.md is enforced, not aspirational.
//
//   ./bench/micro_reqtrace              # pools on (default)
//   ICILK_IO_POOL=0 ./bench/micro_reqtrace
//
// RESULT lines are consumed by bench/run_baseline.sh.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "concurrent/objpool.hpp"
#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "obs/reqtrace.hpp"

static std::atomic<std::uint64_t> g_allocs{0};

static void* counted_alloc(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t sz) { return counted_alloc(sz); }
void* operator new[](std::size_t sz) { return counted_alloc(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t sz, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (::posix_memalign(&p, static_cast<std::size_t>(al), sz ? sz : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return operator new(sz, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace icilk;
using Clock = std::chrono::steady_clock;

double ns_per(const Clock::time_point& t0, const Clock::time_point& t1,
              std::uint64_t ops) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(ops);
}

void result(const char* mode, std::uint64_t ops, double ns_op,
            double allocs_op) {
  std::printf(
      "RESULT bench=reqtrace mode=%s pools=%s ops=%llu ns_per_op=%.1f "
      "allocs_per_op=%.4f\n",
      mode, io_pools_enabled() ? "on" : "off",
      static_cast<unsigned long long>(ops), ns_op, allocs_op);
}

volatile std::uint64_t g_sink = 0;

/// begin_end: the full per-request lifecycle, no runtime involved.
bool bench_begin_end() {
  constexpr std::uint64_t kWarm = 1000, kOps = 500'000;
  for (std::uint64_t i = 0; i < kWarm; ++i) {
    obs::ReqContext* rc = obs::ReqContext::create();
    rc->start(i, 1, 0);
    rc->enter(obs::ReqPhase::kExecuting);
    g_sink = g_sink + rc->close();
    obs::ReqContext::destroy(rc);
  }
  const std::uint64_t a0 = g_allocs.load();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    obs::ReqContext* rc = obs::ReqContext::create();
    rc->start(i, 1, 0);
    rc->enter(obs::ReqPhase::kExecuting);
    g_sink = g_sink + rc->close();
    obs::ReqContext::destroy(rc);
  }
  const auto t1 = Clock::now();
  const std::uint64_t allocs = g_allocs.load() - a0;
  result("begin_end", kOps, ns_per(t0, t1, kOps),
         static_cast<double>(allocs) / static_cast<double>(kOps));
  if (io_pools_enabled() && allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: begin/end allocated %llu times over %llu requests "
                 "with pools on (expected 0)\n",
                 static_cast<unsigned long long>(allocs),
                 static_cast<unsigned long long>(kOps));
    return false;
  }
  return true;
}

/// transition: one phase change (a suspension or dispatch costs one).
void bench_transition() {
  constexpr std::uint64_t kOps = 2'000'000;
  obs::ReqContext* rc = obs::ReqContext::create();
  rc->start(1, 0, 0);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    rc->enter((i & 1) != 0 ? obs::ReqPhase::kExecuting
                           : obs::ReqPhase::kRunnable);
  }
  const auto t1 = Clock::now();
  g_sink = g_sink + rc->close();
  obs::ReqContext::destroy(rc);
  result("transition", kOps, ns_per(t0, t1, kOps), 0.0);
}

/// runtime: req_begin/req_end through the scheduler's hook sites, against
/// a baseline of the identical spawn/sync loop WITHOUT attribution. The
/// spawn/sync machinery has its own allocation profile (fiber/stack/deque
/// recycling); attribution is charged only for the DELTA.
bool bench_runtime() {
  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.num_levels = 4;
  // Pin the idle-spin rounds (the -1 default resolves against the host's
  // core count at attach): this bench gates on the attribution alloc
  // DELTA between two identical loops, and an immediate-sleep idle policy
  // makes the peer worker's steal count — and with it the fiber/deque
  // pool growth — wobble between the base and attributed runs.
  PromptScheduler::Options po;
  po.idle_spin_rounds = 8;
  auto rt =
      std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>(po));
  constexpr std::uint64_t kWarm = 500, kOps = 20'000;

  auto loop = [&rt](std::uint64_t n, bool attributed) {
    rt->submit(1, [&rt, n, attributed] {
      for (std::uint64_t i = 0; i < n; ++i) {
        if (attributed) rt->req_begin();
        spawn([] { g_sink = g_sink + 1; });
        icilk::sync();
        if (attributed) rt->req_end();
      }
    }).get();
  };

  loop(kWarm, false);
  std::uint64_t a0 = g_allocs.load();
  auto t0 = Clock::now();
  loop(kOps, false);
  auto t1 = Clock::now();
  const std::uint64_t base_allocs = g_allocs.load() - a0;
  const double base_ns = ns_per(t0, t1, kOps);
  result("runtime_base", kOps, base_ns,
         static_cast<double>(base_allocs) / static_cast<double>(kOps));

  loop(kWarm, true);
  a0 = g_allocs.load();
  t0 = Clock::now();
  loop(kOps, true);
  t1 = Clock::now();
  const std::uint64_t req_allocs = g_allocs.load() - a0;
  result("runtime", kOps, ns_per(t0, t1, kOps),
         static_cast<double>(req_allocs) / static_cast<double>(kOps));
  rt->shutdown();

  // Attribution itself must not add steady-state allocations: the context
  // is pooled and the worst-K reservoir copies in place. Allow a sliver
  // of noise (other threads, reservoir churn during warmup).
  const std::uint64_t delta =
      req_allocs > base_allocs ? req_allocs - base_allocs : 0;
  if (io_pools_enabled() && delta > kOps / 100) {
    std::fprintf(stderr,
                 "FAIL: attribution added %llu allocs over %llu requests "
                 "(baseline %llu) with pools on\n",
                 static_cast<unsigned long long>(delta),
                 static_cast<unsigned long long>(kOps),
                 static_cast<unsigned long long>(base_allocs));
    return false;
  }
  return true;
}

}  // namespace

int main() {
  if (!obs::reqtrace_compiled_in()) {
    std::printf("RESULT bench=reqtrace mode=disabled pools=%s ops=0 "
                "ns_per_op=0.0 allocs_per_op=0.0\n",
                io_pools_enabled() ? "on" : "off");
    // Class-level paths still work under ICILK_REQTRACE=OFF; measure them
    // anyway (they are what the hooks would call).
  }
  bool ok = bench_begin_end();
  bench_transition();
  ok = bench_runtime() && ok;
  return ok ? 0 : 1;
}
