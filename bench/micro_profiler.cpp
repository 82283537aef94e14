// Codegen check for the sampling-profiler hooks (src/obs/profiler.hpp).
//
// Same contract as the watchdog/inject/trace hooks: with ICILK_PROFILE=OFF
// every hook is an empty inline, so BM_SetContext and BM_ProfScope must be
// indistinguishable from BM_Baseline (scripts/soak.sh additionally greps
// the OFF-build hot-path objects for prof symbols). Compiled in, the hooks
// are one relaxed store each into the per-thread context
// (obs/thread_ctx.hpp) — the SIGPROF handler reads the word asynchronously,
// so there is nothing heavier to pay on the scheduler's transition sites.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "obs/profiler.hpp"

namespace {

using icilk::obs::ProfBucket;

void BM_Baseline(benchmark::State& state) {
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc++;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Baseline);

void BM_SetContext(benchmark::State& state) {
  // The shape of acquire / idle_sleep: two bucket transitions. (The
  // dispatch bracket's task word is priced by micro_sched_hotpath.)
  std::uint64_t acc = 0;
  for (auto _ : state) {
    icilk::obs::prof_enter_bucket(ProfBucket::kTask,
                                  static_cast<int>(acc & 3));
    icilk::obs::prof_enter_bucket(ProfBucket::kSchedLoop,
                                  static_cast<int>(acc & 3));
    acc++;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SetContext);

void BM_ProfScope(benchmark::State& state) {
  // pre_op_check's save/restore bracket (runs on the task fiber).
  std::uint64_t acc = 0;
  for (auto _ : state) {
    {
      icilk::obs::ProfScope scope(ProfBucket::kPreOpCheck,
                                  static_cast<int>(acc & 3));
      acc++;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ProfScope);

}  // namespace

BENCHMARK_MAIN();
