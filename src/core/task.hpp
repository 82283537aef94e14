// Tasks, frames (join counters), and continuations.
//
// Execution model (library-level continuation stealing, Section 2 of the
// paper / proactive work stealing [42]):
//
//   * Each task invocation runs on its own fiber; its bookkeeping is the
//     TaskState carried by the TaskFiber.
//   * `spawn(f)`: the spawning fiber parks and is pushed onto the BOTTOM of
//     the worker's active deque as the parent continuation; the worker
//     switches to a fresh fiber running `f`. This makes the *continuation*
//     the stealable object, exactly as in Cilk: thieves take the TOP
//     (oldest ancestor continuation).
//   * On child return, the worker pops the bottom; if the parent
//     continuation is still there it resumes it directly (the serial fast
//     path). Otherwise the continuation was stolen and the full join
//     protocol runs.
//   * `sync` parks the fiber in its frame's `parked` slot when children are
//     outstanding; the last child to finish wakes it.
#pragma once

#include <atomic>
#include <cassert>

#include "concurrent/ref.hpp"
#include "core/future.hpp"
#include "core/types.hpp"
#include "fiber/fiber.hpp"
#include "obs/spanprof.hpp"

namespace icilk {

namespace obs {
class ReqContext;  // obs/reqtrace.hpp; tasks carry only the pointer
}  // namespace obs

/// Join bookkeeping for one task invocation: counts outstanding spawned
/// children and holds the deque suspended at a failed sync (if any; the
/// syncing fiber is that deque's bottom frame — a failed sync suspends the
/// whole deque just like a failed get, because ancestor continuations above
/// it must stay stealable).
///
/// `joins` packs (outstanding_children << 1) | parked_bit into ONE atomic
/// word so the "last child retires while the parent is parked" decision is
/// atomic. This matters for LIFETIME, not just missed wakeups: the frame
/// lives inside the parent's pooled TaskFiber, so a child may only touch
/// `parked` when it is certain the parent cannot resume (and recycle the
/// frame) without that child's wake. Protocol (all seq_cst):
///
///   spawn:        joins += 2
///   child retire: old = (joins -= 2) + 2
///                 old == 3 (last child, parent parked) -> sole waker:
///                          take `parked`, make it resumable
///                 old == 2 (last child, parent not yet parked) -> nothing;
///                          the parent's own park will self-wake
///   parent sync:  parked = deque; old = joins |= parked_bit
///                 old >> 1 == 0 -> children already gone and none can
///                          touch the frame anymore: self-wake (take
///                          `parked` back), clear the bit on resume
///
/// Exactly one side obtains the parked deque, and whoever does is the only
/// remaining toucher of the frame. The Deque* carries an owning reference
/// (released into / adopted out of the atomic).
struct Frame {
  static constexpr std::uint64_t kParkedBit = 1;
  static constexpr std::uint64_t kChildUnit = 2;

  std::atomic<std::uint64_t> joins{0};
  std::atomic<Deque*> parked{nullptr};

  /// Spanprof merge slots: a finishing child deposits its work (sum) and
  /// depth/bdepth (max) here BEFORE its seq_cst `joins` decrement, so the
  /// join protocol's happens-before publishes the merge; the parent folds
  /// them at sync (sp_fold_frame). Unconditionally present (layout
  /// independence); never touched when ICILK_OBS=OFF.
  std::atomic<std::uint64_t> sp_child_work{0};
  std::atomic<std::uint64_t> sp_child_depth{0};
  std::atomic<std::uint64_t> sp_child_bdepth{0};

  std::uint64_t outstanding() const noexcept {
    return joins.load(std::memory_order_seq_cst) >> 1;
  }

  void reset() {
    joins.store(0, std::memory_order_relaxed);
    parked.store(nullptr, std::memory_order_relaxed);
    sp_child_work.store(0, std::memory_order_relaxed);
    sp_child_depth.store(0, std::memory_order_relaxed);
    sp_child_bdepth.store(0, std::memory_order_relaxed);
  }
};

/// Per-task-invocation state, carried by the fiber across workers.
struct TaskState {
  Runtime* rt = nullptr;
  Frame* parent = nullptr;             ///< frame credited when we finish
  Ref<FutureStateBase> future;         ///< completed when we finish (may be null)
  Priority priority = kDefaultPriority;
  Frame frame;                         ///< joins for OUR spawned children

  /// Request attribution (obs/reqtrace.hpp): the request this task serves,
  /// or null. Only the ROOT fiber of the request (req_owner) drives the
  /// phase machine; children inherit the pointer so their I/O ops are
  /// tagged, nothing more. Propagated at spawn, cleared at finish.
  obs::ReqContext* req = nullptr;
  bool req_owner = false;

  /// Work/span accumulators (obs/spanprof.hpp); ride the fiber across
  /// parks and migration exactly like `req`.
  obs::SpanAcc sp;

  void reset() {
    rt = nullptr;
    parent = nullptr;
    future.reset();
    priority = kDefaultPriority;
    frame.reset();
    req = nullptr;
    req_owner = false;
    sp.reset();
  }
};

/// A fiber plus its task state; the unit the runtime pools and schedules.
struct TaskFiber {
  explicit TaskFiber(Stack&& s) : fiber(std::move(s)) {}
  Fiber fiber;
  TaskState st;
};

/// Something a worker can run next: resume a parked fiber, or start a fresh
/// closure (with join/future obligations).
struct Continuation {
  TaskFiber* resume = nullptr;  ///< parked fiber, or
  Closure start;                ///< fresh closure (when resume == nullptr)
  Frame* parent = nullptr;      ///< for fresh closures
  Ref<FutureStateBase> future;  ///< for fresh future routines
  Priority priority = kDefaultPriority;
  obs::ReqContext* req = nullptr;  ///< request inherited by fresh closures
  /// Spanprof base for fresh closures: the spawner's depth/bdepth at the
  /// spawn point (a spawned child starts on its parent's critical path).
  std::uint64_t sp_depth = 0;
  std::uint64_t sp_bdepth = 0;

  bool valid() const noexcept { return resume != nullptr || bool(start); }
  void clear() {
    resume = nullptr;
    start = nullptr;
    parent = nullptr;
    future.reset();
    req = nullptr;
    sp_depth = 0;
    sp_bdepth = 0;
  }

  static Continuation of_fiber(TaskFiber* f);
  static Continuation of_closure(Closure c, Frame* parent,
                                 Ref<FutureStateBase> fut, Priority p) {
    Continuation k;
    k.start = std::move(c);
    k.parent = parent;
    k.future = std::move(fut);
    k.priority = p;
    return k;
  }
};

inline Continuation Continuation::of_fiber(TaskFiber* f) {
  Continuation k;
  k.resume = f;
  k.priority = f->st.priority;
  return k;
}

// ---------------------------------------------------------------------------
// Spanprof structural-event algebra (obs/spanprof.hpp holds the strand
// clock; these helpers hold the Frame/Continuation halves). All fold to
// nothing when ICILK_OBS=OFF.
// ---------------------------------------------------------------------------

#if ICILK_OBS_ENABLED

/// A finishing child deposits its totals into the parent frame's merge
/// slots: work sums, depth/bdepth max-merge (CAS loops; fetch_max is not in
/// the language yet). Relaxed is enough — the caller's subsequent seq_cst
/// `joins` decrement orders the deposit before the parent can observe the
/// join count.
inline void sp_merge_child_into(Frame& fr, const obs::SpanAcc& sp) noexcept {
  if ((sp.work | sp.depth) == 0) return;  // untracked (profiler disarmed)
  fr.sp_child_work.fetch_add(sp.work, std::memory_order_relaxed);
  std::uint64_t prev = fr.sp_child_depth.load(std::memory_order_relaxed);
  while (sp.depth > prev &&
         !fr.sp_child_depth.compare_exchange_weak(
             prev, sp.depth, std::memory_order_relaxed)) {
  }
  prev = fr.sp_child_bdepth.load(std::memory_order_relaxed);
  while (sp.bdepth > prev &&
         !fr.sp_child_bdepth.compare_exchange_weak(
             prev, sp.bdepth, std::memory_order_relaxed)) {
  }
}

/// The parent folds its frame's merge slots at sync: work adds, depth and
/// bdepth max into its own accumulators (the strand is brought current
/// first so the max compares like with like). Safe to call repeatedly —
/// the slots are drained with exchange(0).
inline void sp_fold_frame(TaskState& st) noexcept {
  Frame& fr = st.frame;
  if (fr.sp_child_work.load(std::memory_order_relaxed) == 0 &&
      fr.sp_child_depth.load(std::memory_order_relaxed) == 0) {
    return;
  }
  obs::sp_strand_now();
  st.sp.work += fr.sp_child_work.exchange(0, std::memory_order_relaxed);
  const std::uint64_t d =
      fr.sp_child_depth.exchange(0, std::memory_order_relaxed);
  const std::uint64_t bd =
      fr.sp_child_bdepth.exchange(0, std::memory_order_relaxed);
  if (d > st.sp.depth) st.sp.depth = d;
  if (bd > st.sp.bdepth) st.sp.bdepth = bd;
}

/// Charges a measured resumable->running delay (a mug's aging sample) to
/// the burdened span of the fiber being resumed, and feeds the global
/// burden estimator. Called from policy/adopt.hpp and dispatch_woken with
/// exclusive ownership of the continuation.
inline void sp_charge_resume(const Continuation& c,
                             std::uint64_t delay_ns) noexcept {
  obs::sp_note_overhead(delay_ns);
  if (c.resume != nullptr) c.resume->st.sp.bdepth += delay_ns;
}

#else  // !ICILK_OBS_ENABLED

inline void sp_merge_child_into(Frame&, const obs::SpanAcc&) noexcept {}
inline void sp_fold_frame(TaskState&) noexcept {}
inline void sp_charge_resume(const Continuation&, std::uint64_t) noexcept {}

#endif  // ICILK_OBS_ENABLED

}  // namespace icilk
