// Futures — including the machinery behind I/O futures.
//
// `fut_create` starts a future routine (like spawn, but the handle escapes
// lexical scope and is joined with `get`, not `sync`). A failed `get`
// suspends the CALLER'S WHOLE DEQUE (Section 2): the deque may still carry
// stealable ancestor continuations, and once the future completes the deque
// becomes resumable and re-enters the scheduler's pool.
//
// FutureStateBase is deliberately type-erased: the scheduler-side protocol
// (waiter registration, completion, wakeups) is identical for every value
// type, and I/O completions driven by reactor threads only touch the base.
//
// Layering note: this header sits BELOW deque.hpp (task.hpp needs a
// complete FutureStateBase), so waiters are stored as owned raw Deque*
// (reference transferred in/out) and every method touching Deque is defined
// out of line in runtime.cpp.
#pragma once

#include <atomic>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "concurrent/objpool.hpp"
#include "concurrent/ref.hpp"
#include "concurrent/spinlock.hpp"
#include "core/types.hpp"

namespace icilk {

class FutureStateBase : public RefCounted {
 public:
  /// Future states churn once per I/O operation and once per routine, so
  /// they allocate from the recycling size-class pool: steady-state I/O
  /// submits nothing to malloc. Sized deallocation through the virtual
  /// destructor routes each concrete state back to its own size class;
  /// oversized value types fall through to the global allocator.
  static void* operator new(std::size_t sz) { return sized_pool_alloc(sz); }
  static void operator delete(void* p, std::size_t sz) noexcept {
    sized_pool_free(p, sz);
  }

  explicit FutureStateBase(Runtime& rt) : rt_(&rt) {}
  /// Runtime-less state: only EXTERNAL (non-task) waits are allowed —
  /// add_waiter asserts. Used by sync primitives when the waiter is a
  /// plain thread with no runtime in scope; completion then signals a
  /// process-wide condvar instead of a runtime's.
  FutureStateBase() : rt_(nullptr) {}
  virtual ~FutureStateBase();  // drops any leftover waiter references

  bool ready() const noexcept { return ready_.load(std::memory_order_acquire); }

  Runtime& runtime() const noexcept { return *rt_; }
  bool has_runtime() const noexcept { return rt_ != nullptr; }

  /// Records a failure; must precede complete(). The error rethrows at get.
  void fail(std::exception_ptr e) noexcept { error_ = std::move(e); }

  /// Marks the future ready and wakes every waiter: suspended deques become
  /// resumable and are handed to the scheduler; external (non-worker)
  /// waiters are notified. Called exactly once, after the value (or error)
  /// is in place.
  void complete();

  /// Registers a suspended deque to be resumed on completion. Returns
  /// false if the future is already ready (caller resumes it itself).
  /// The deque must already be in the Suspended state.
  bool add_waiter(Ref<Deque> d);

  /// Blocking wait for threads that are not runtime workers (drivers,
  /// tests, the main thread).
  void wait_external();

  void rethrow_if_error() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  friend class Runtime;

  Runtime* rt_;
  std::atomic<bool> ready_{false};
  SpinLock mu_;
  // Waiter list: the overwhelmingly common case is exactly one waiter (the
  // task that issued the I/O), so the first one lives inline and only a
  // second concurrent waiter touches the heap. Each entry holds one
  // reference.
  Deque* first_waiter_ = nullptr;
  std::vector<Deque*> extra_waiters_;
  std::exception_ptr error_;
  std::atomic<bool> has_external_waiter_{false};

  /// Priority of the producing routine, for inversion detection (see
  /// RuntimeConfig::detect_priority_inversions). kUnknownPriority until
  /// the routine is created; I/O futures use the reactor's setting.
  static constexpr int kUnknownPriority = -1;
  std::atomic<int> routine_priority_{kUnknownPriority};

 public:
  void set_routine_priority(Priority p) noexcept {
    routine_priority_.store(p, std::memory_order_relaxed);
  }
  int routine_priority() const noexcept {
    return routine_priority_.load(std::memory_order_relaxed);
  }

  // -- spanprof routine->getter handoff (obs/spanprof.hpp) --
  // The finishing routine stores its totals BEFORE complete(); complete's
  // release on ready_ publishes them to any getter that observed ready().
  // Unconditionally present (layout independence); untouched when
  // ICILK_OBS=OFF. A future with sp_routine_ran()==false was
  // completed externally (reactor I/O, timer): the getter's measured wall
  // wait is then the request's serial floor and joins the span directly.
  void sp_store_routine(std::uint64_t work, std::uint64_t depth,
                        std::uint64_t bdepth) noexcept {
    sp_work_ = work;
    sp_depth_ = depth;
    sp_bdepth_ = bdepth;
    sp_routine_ran_ = true;
  }
  bool sp_routine_ran() const noexcept { return sp_routine_ran_; }
  std::uint64_t sp_depth_end() const noexcept { return sp_depth_; }
  std::uint64_t sp_bdepth_end() const noexcept { return sp_bdepth_; }
  /// The routine's work joins the getter side exactly once, no matter how
  /// many tasks get() the same future (span max-merges are idempotent,
  /// work is not).
  std::uint64_t sp_take_work() noexcept {
    return sp_work_taken_.exchange(true, std::memory_order_relaxed)
               ? 0
               : sp_work_;
  }

 private:
  std::uint64_t sp_work_ = 0;
  std::uint64_t sp_depth_ = 0;
  std::uint64_t sp_bdepth_ = 0;
  bool sp_routine_ran_ = false;
  std::atomic<bool> sp_work_taken_{false};
};

template <typename T>
class FutureState final : public FutureStateBase {
 public:
  using FutureStateBase::FutureStateBase;

  void set_value(T v) { value_.emplace(std::move(v)); }
  T& value() { return *value_; }

 private:
  std::optional<T> value_;
};

template <>
class FutureState<void> final : public FutureStateBase {
 public:
  using FutureStateBase::FutureStateBase;
};

/// Blocks the caller until `st` is ready: worker fibers suspend their deque
/// (scheduler finds other work), external threads block on a condvar.
///
/// Declared here for layering; DEFINED INLINE in core/runtime.hpp. The
/// common case — get() on an already-completed future with nothing above
/// the worker's level, i.e. every I/O operation whose syscall completed
/// inline — is a handful of loads, and inlining it into the caller is
/// worth more than this header's independence: any TU that calls get()
/// must have core/runtime.hpp in its include graph (api.hpp, the reactor,
/// and the sync primitives all do; a missing include is a link error, not
/// a miscompile).
void future_wait(FutureStateBase& st);

/// Out-of-line remainder of future_wait: promptness work that the inline
/// gate could not discharge, priority-inversion detection, external
/// (non-worker) waits, and deque suspension. Defined in runtime.cpp.
void future_wait_slow(FutureStateBase& st);

/// Handle to a future's eventual value. Copyable (shared state).
template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(Ref<FutureState<T>> st) : st_(std::move(st)) {}

  bool valid() const noexcept { return bool(st_); }
  bool ready() const noexcept { return st_ && st_->ready(); }

  /// Waits for completion and returns a COPY of the value — future handles
  /// are shared, and any number of tasks may call get() on the same future
  /// (that expressiveness is the point of futures, Section 2), so the
  /// stored value must survive each get. Rethrows the routine's exception.
  T get() {
    future_wait(*st_);
    st_->rethrow_if_error();
    return st_->value();
  }

  Ref<FutureState<T>>& state() noexcept { return st_; }

 private:
  Ref<FutureState<T>> st_;
};

template <>
class Future<void> {
 public:
  Future() = default;
  explicit Future(Ref<FutureState<void>> st) : st_(std::move(st)) {}

  bool valid() const noexcept { return bool(st_); }
  bool ready() const noexcept { return st_ && st_->ready(); }

  void get() {
    future_wait(*st_);
    st_->rethrow_if_error();
  }

  Ref<FutureState<void>>& state() noexcept { return st_; }

 private:
  Ref<FutureState<void>> st_;
};

}  // namespace icilk
