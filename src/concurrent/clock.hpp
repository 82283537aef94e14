// Time accounting for the scheduler's waste / running-time split (Section 5
// of the paper, "Waste and Scheduling Overhead"):
//
//   waste = time workers spent looking for and failing to find work, plus
//           (Prompt) time spent going to sleep / waking up;
//   run   = useful work plus scheduling overhead (successful steals, mugs,
//           bitfield checks, queue maintenance while active).
//
// We use the raw TSC when available (rdtsc is ~7ns and monotonic-enough on
// modern invariant-TSC parts) and fall back to steady_clock elsewhere.
// A StopwatchBucket accumulates disjoint segments into named counters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace icilk {

/// Raw cycle/tick counter; only differences are meaningful.
inline std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Ticks per second, calibrated once (lazily) against steady_clock.
std::uint64_t ticks_per_second() noexcept;

inline double ticks_to_seconds(std::uint64_t ticks) noexcept {
  return static_cast<double>(ticks) / static_cast<double>(ticks_per_second());
}

/// Nanosecond wall clock (steady). Used for latency measurement where
/// cross-thread comparability matters more than the last few ns.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds of CPU time consumed by the CALLING THREAD
/// (CLOCK_THREAD_CPUTIME_ID — a real syscall, ~200ns, no vDSO fast path).
/// Too expensive for per-strand-event use; see ticks_to_ns().
std::uint64_t now_cpu_ns() noexcept;

namespace detail {
/// Cached ns-per-tick factor (first call calibrates, ~20ms sleep).
double ns_per_tick() noexcept;
}  // namespace detail

/// Scales a now_ticks() reading to ns: the work/span profiler's default
/// strand clock (src/obs/thread_ctx.hpp). A WALL clock: a strand preempted
/// mid-run is charged its preemption, so "work" equals CPU-ns only when
/// workers are not oversubscribed (see RuntimeConfig::spanprof_precise).
/// First use calibrates (20ms); Runtime's constructor forces that before
/// any strand is timed.
inline std::uint64_t ticks_to_ns(std::uint64_t ticks) noexcept {
  return static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                    detail::ns_per_tick());
}

/// Accumulates tick segments. Single-writer (one worker); concurrent
/// readers (the adaptive allocator's utilization snapshot, bench
/// aggregation) get torn-free values via relaxed atomics. The store is a
/// plain load+add+store — still one writer, so no RMW is needed and the
/// codegen matches the old non-atomic field.
class TickAccumulator {
 public:
  void add(std::uint64_t ticks) noexcept {
    total_.store(total_.load(std::memory_order_relaxed) + ticks,
                 std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { total_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> total_{0};
};

/// RAII segment timer: charge the elapsed ticks to an accumulator.
class ScopedTimer {
 public:
  explicit ScopedTimer(TickAccumulator& acc) noexcept
      : acc_(acc), start_(now_ticks()) {}
  ~ScopedTimer() { acc_.add(now_ticks() - start_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TickAccumulator& acc_;
  std::uint64_t start_;
};

}  // namespace icilk
