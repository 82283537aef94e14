// Request-scoped causal tracing: where did this request's latency go?
//
// The trace rings and MetricsRegistry (PR 1) record *scheduler-local*
// events — a steal, a mug, an I/O completion — but none of them carry the
// identity of the request being served, so a p99 regression cannot be
// attributed to queueing vs. aging vs. I/O. This module adds that axis:
//
//   * A ReqContext (64-bit id + priority + phase clock) is allocated when a
//     server app begins a request (Runtime::req_begin) and rides the task
//     fiber through parks, steals, mugs, abandonment, and I/O suspensions.
//   * The context is a PHASE MACHINE over the request's root fiber chain:
//       queueing        submit/arrival until first dispatch
//       executing       running on some worker
//       runnable        resumable but not yet scheduled (aging delay,
//                       abandoned deques, post-I/O wakeup queueing)
//       suspended_io    deque suspended on a reactor op or timer
//       suspended_sync  deque suspended at a sync / non-I/O future
//     Transitions are driven from the deque lifecycle (suspend / abandon /
//     make_resumable) and the worker dispatch point, all of which already
//     serialize on the deque lock or the continuation hand-off — the
//     context needs no atomics of its own.
//   * Phase durations sum EXACTLY to end-to-end latency by construction:
//     every transition closes the previous phase at the same timestamp the
//     next one opens.
//
// Parallelism note: a request that spawns parallel children is attributed
// through its ROOT fiber's chain only (children inherit the pointer for
// I/O-op tagging but do not drive phases). "Executing" therefore means
// "the root chain is executing"; a root parked at a sync while children
// run shows as suspended_sync — which is the correct answer to "why is
// the root not finished yet".
//
// Compile-out: with -DICILK_OBS=OFF every req_hook_* below (and the
// dispatch bracket's request half) inlines to nothing; the ReqContext
// class itself stays compiled (tests and the micro bench drive it
// directly), but no hot-path object references it (scripts/soak.sh
// obsoff verifies).
#pragma once

#include <cstddef>
#include <cstdint>

#include "concurrent/clock.hpp"
#include "concurrent/objpool.hpp"
#include "obs/trace.hpp"

namespace icilk::obs {

/// The request phase taxonomy (documented in DESIGN.md "Request
/// lifecycle"). Order is export order; kCount is the sentinel.
enum class ReqPhase : std::uint8_t {
  kQueueing = 0,    ///< arrival -> first dispatch
  kExecuting,       ///< root chain running on a worker
  kRunnable,        ///< resumable, waiting for a mug (aging / abandonment)
  kSuspendedIo,     ///< deque suspended on a reactor op / timer
  kSuspendedSync,   ///< deque suspended at a sync or non-I/O future
  kCount            ///< sentinel; not a real phase
};
inline constexpr int kReqPhaseCount = static_cast<int>(ReqPhase::kCount);

/// Stable lowercase name for export ("queueing", "executing", ...).
const char* req_phase_name(ReqPhase p) noexcept;

/// One timeline entry: the request entered `phase` at `t_ns` on `where`
/// (worker id >= 0, I/O thread -1-idx < 0, kNoWhere = off-runtime).
struct ReqHop {
  std::uint64_t t_ns = 0;
  ReqPhase phase = ReqPhase::kCount;
  std::int16_t where = 0;

  static constexpr std::int16_t kNoWhere = INT16_MIN;
};

/// The per-request context. Plain fields, no atomics: every transition is
/// serialized by the deque lock or the continuation hand-off that moves
/// the owning fiber between threads (those already publish with acq_rel).
/// Copyable by design — the worst-K reservoir retains full timelines by
/// value.
class ReqContext {
 public:
  static constexpr int kMaxHops = 24;

  std::uint64_t id = 0;
  std::uint16_t priority = 0;
  std::uint64_t begin_ns = 0;          ///< arrival (phase clock origin)
  std::uint64_t end_ns = 0;            ///< set by close()
  std::uint64_t phase_ns[kReqPhaseCount] = {};
  ReqHop hops[kMaxHops];
  std::uint32_t nhops = 0;             ///< valid entries in hops
  std::uint32_t hops_dropped = 0;      ///< transitions past kMaxHops

  /// (Re)starts the context: request `rid` at `prio`, arrived at
  /// `arrival_ns` (0 = now). Opens the queueing phase at arrival.
  void start(std::uint64_t rid, std::uint16_t prio,
             std::uint64_t arrival_ns) noexcept;

  /// Transition to phase `p` now. Closes the current phase, logs a hop,
  /// and emits a kReqPhase record into the calling thread's ring. A
  /// same-phase re-entry on the same thread is a no-op; on a different
  /// thread it logs the migration hop without touching the accumulators.
  void enter(ReqPhase p) noexcept;

  /// Closes the final phase and returns end-to-end latency (ns). The sum
  /// of phase_ns[] equals the return value exactly.
  std::uint64_t close() noexcept;

  /// The next deque suspension of the owning chain is an I/O wait (set by
  /// the reactor arm path, consumed by the suspend hook).
  void set_io_hint() noexcept { io_hint_ = true; }
  bool take_io_hint() noexcept {
    const bool h = io_hint_;
    io_hint_ = false;
    return h;
  }

  ReqPhase phase() const noexcept { return phase_; }
  std::uint64_t phase_start_ns() const noexcept { return phase_start_ns_; }

  /// Sum of the recorded phase durations (== close()'s return afterwards).
  std::uint64_t phase_sum_ns() const noexcept {
    std::uint64_t s = 0;
    for (int i = 0; i < kReqPhaseCount; ++i) s += phase_ns[i];
    return s;
  }

  // Pooled allocation so begin/end allocate nothing in steady state
  // (ICILK_IO_POOL=0 disables recycling; bench/micro_reqtrace measures).
  static ReqContext* create() { return Pool::create(); }
  static void destroy(ReqContext* rc) noexcept { Pool::destroy(rc); }
  static PoolCountersSnapshot pool_stats() noexcept { return Pool::stats(); }

 private:
  using Pool = ObjectPool<ReqContext>;

  void log_hop(std::uint64_t t, ReqPhase p, int where) noexcept;

  ReqPhase phase_ = ReqPhase::kQueueing;
  bool io_hint_ = false;
  std::uint64_t phase_start_ns_ = 0;
};

// Hot-path hooks (deque / reactor call sites). The thread's binding lives
// in the per-thread context (obs/thread_ctx.hpp).

#if ICILK_OBS_ENABLED

/// The request context bound to the fiber currently running on this
/// thread, or nullptr (scheduler context, external threads).
ReqContext* req_current() noexcept;

/// Deque suspension: I/O wait if the reactor hinted, sync wait otherwise.
inline void req_hook_suspend(ReqContext* rc, bool owner) noexcept {
  if (rc != nullptr && owner) {
    rc->enter(rc->take_io_hint() ? ReqPhase::kSuspendedIo
                                 : ReqPhase::kSuspendedSync);
  }
}

/// Deque became runnable again (abandonment, future/I/O completion).
inline void req_hook_runnable(ReqContext* rc, bool owner) noexcept {
  if (rc != nullptr && owner) rc->enter(ReqPhase::kRunnable);
}

/// Reactor arm path: tag the op with the submitting request and mark the
/// imminent suspension as an I/O wait. Returns the request id (0 = none).
inline std::uint64_t req_hook_io_arm() noexcept {
  ReqContext* rc = req_current();
  if (rc == nullptr) return 0;
  rc->set_io_hint();
  return rc->id;
}

#else  // !ICILK_OBS_ENABLED

inline ReqContext* req_current() noexcept { return nullptr; }
inline void req_hook_suspend(ReqContext*, bool) noexcept {}
inline void req_hook_runnable(ReqContext*, bool) noexcept {}
inline std::uint64_t req_hook_io_arm() noexcept { return 0; }

#endif  // ICILK_OBS_ENABLED

}  // namespace icilk::obs
