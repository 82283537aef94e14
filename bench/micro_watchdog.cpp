// Codegen check for the watchdog hooks (src/obs/watchdog.hpp).
//
// The contract mirrors the inject/trace subsystems: with ICILK_OBS=OFF
// both hooks are constexpr no-ops, so BM_CensusNote and BM_PublishState
// must be indistinguishable from BM_Baseline (scripts/soak.sh additionally
// proves the OFF-build hot-path object files reference no watchdog symbols
// at all). Compiled in, wd_publish_state is one relaxed store and
// wd_census_note is a shard-lock + hash-map update — deque state
// transitions are already steal/mug/suspend-rate events, not per-task
// ones, so that cost is off the per-op fast path by construction.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>

#include "obs/watchdog.hpp"

namespace {

using icilk::obs::WdDequeState;
using icilk::obs::WdWorkerState;

void BM_Baseline(benchmark::State& state) {
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc++;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Baseline);

void BM_PublishState(benchmark::State& state) {
  // The shape of every worker state-transition site: pack + relaxed store
  // (a literal no-op when compiled out).
  std::atomic<std::uint32_t> word{0};
  std::uint64_t acc = 0;
  for (auto _ : state) {
    icilk::obs::wd_publish_state(word, WdWorkerState::kWorking,
                                 static_cast<int>(acc & 63));
    acc++;
    benchmark::DoNotOptimize(acc);
  }
  benchmark::DoNotOptimize(word);
}
BENCHMARK(BM_PublishState);

void BM_CensusNote(benchmark::State& state) {
  // A deque lifecycle hook: registry upsert + erase round trip. Runs at
  // suspension/resumption rate in production, never per task.
  int dummy[2];
  std::uint64_t acc = 0;
  for (auto _ : state) {
    icilk::obs::wd_census_note(&dummy[acc & 1], WdDequeState::kSuspended,
                               acc, 3);
    icilk::obs::wd_census_note(&dummy[acc & 1], WdDequeState::kGone, 0, 0);
    acc++;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CensusNote);

}  // namespace

BENCHMARK_MAIN();
