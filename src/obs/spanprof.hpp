// On-the-fly work/span parallelism profiler (Cilkview / Cilkscale lineage).
//
// The runtime maintains, for every task fiber, three monotone accumulators
// (obs::SpanAcc, embedded in TaskState so they ride the fiber across parks,
// steals, mugs and abandonment):
//
//   work    total CPU-ns of strands executed by this task PLUS all joined
//           descendants — the request's T1;
//   depth   the absolute span clock: CPU-ns along the longest
//           happens-before chain from the task-tree root to "here" — the
//           request's T-infinity. I/O suspensions (reactor futures, timers)
//           add their WALL time, so I/O-bound requests show their serial
//           floor; sync- and internal-future waits add nothing (their span
//           arrives via the child's depth merge);
//   bdepth  the burdened variant: depth plus measured scheduler overhead
//           charged at structural events (spawn/steal charge the live
//           overhead estimate; mug resumes charge the actually measured
//           resumable->running delay).
//
// The algebra is maintained incrementally at the structural events — spawn
// (child inherits the parent's depth as its base, carried in the
// Continuation like the reqtrace id), child finish (atomic max-merge into
// the parent Frame before the join-counter decrement, whose seq_cst
// ordering publishes the merge), sync (fold the frame's merge slots),
// future routine finish/get (handoff through FutureStateBase, work taken
// once), and req_begin/req_end (per-request deltas against baselines so a
// long-lived connection fiber reports per-request numbers).
//
// Strand timing lives in the per-thread context (obs/thread_ctx.hpp): the
// dispatch bracket arms it before a fiber runs and flushes it when control
// returns; structural events flush through sp_strand_now (out of line, so
// the context is re-resolved at each event, never cached across a park).
// The default clock is the invariant TSC; RuntimeConfig::spanprof_precise
// selects CLOCK_THREAD_CPUTIME_ID, a ~200ns syscall that is immune to
// preemption (the closed-form validation tests use it) but whose
// per-event cost queueing-amplified into ~25% end-to-end latency on a
// saturated minicached (bench/micro_spanprof).
//
// Average parallelism = work/span. Per-request results aggregate into
// MetricsRegistry (per-priority histograms + a worst-K LOWEST-parallelism
// reservoir keyed by reqtrace id) and surface via /metrics, /parallelism,
// `stats icilk parallelism`, the timeseries ring and flight bundles.
//
// Build with -DICILK_SPANPROF=OFF and every hook folds to nothing
// (nm-verified in CI and scripts/soak.sh spoff); bench/micro_spanprof
// prices the hooks either way. RuntimeConfig::spanprof_enabled is the
// runtime kill switch (dispatch simply never arms the strand clock).
#pragma once

#include <cstdint>

#if !defined(ICILK_SPANPROF_ENABLED)
#define ICILK_SPANPROF_ENABLED 1
#endif

namespace icilk::obs {

/// True when the build carries the spanprof hooks (ICILK_SPANPROF=ON).
constexpr bool spanprof_compiled_in() { return ICILK_SPANPROF_ENABLED != 0; }

/// Per-task work/span accumulators. Plain POD, unconditionally present in
/// TaskState so flipping ICILK_SPANPROF never changes task layout (the
/// Worker::wd_state precedent); when compiled out nothing ever writes it.
struct SpanAcc {
  std::uint64_t work = 0;    ///< CPU-ns: own strands + joined descendants (T1)
  std::uint64_t depth = 0;   ///< span ns along the critical path to "here"
  std::uint64_t bdepth = 0;  ///< depth + measured scheduler burden
  // req_begin snapshots, so req_end reports per-request deltas even on a
  // connection fiber that serves thousands of requests back to back.
  std::uint64_t req_work0 = 0;
  std::uint64_t req_depth0 = 0;
  std::uint64_t req_bdepth0 = 0;

  void reset() noexcept { *this = SpanAcc{}; }
};

#if ICILK_SPANPROF_ENABLED

/// Flushes the in-flight strand segment and restarts the clock; returns
/// the armed acc (nullptr when disarmed). All structural-event hooks go
/// through this so acc->depth is exact at the event point.
SpanAcc* sp_strand_now() noexcept;

/// Feeds one measured scheduler-overhead sample (the resumable->running
/// delay observed when a deque is mugged / self-mugged) into the global
/// burden estimator.
void sp_note_overhead(std::uint64_t delay_ns) noexcept;

/// EWMA of the fed samples: the per-structural-event charge added to
/// bdepth at spawn and steal adoption (mug resumes charge their actual
/// measured delay instead).
std::uint64_t sp_overhead_est() noexcept;

#else  // !ICILK_SPANPROF_ENABLED — every hook folds to nothing.

inline SpanAcc* sp_strand_now() noexcept { return nullptr; }
inline void sp_note_overhead(std::uint64_t) noexcept {}
inline std::uint64_t sp_overhead_est() noexcept { return 0; }

#endif  // ICILK_SPANPROF_ENABLED

}  // namespace icilk::obs
