// The I-Cilk runtime: workers, task lifecycle, and the public task API.
//
// Construction wires a Scheduler policy to a worker pool; the same runtime
// core runs Prompt I-Cilk and all Adaptive variants. Typical use:
//
//   icilk::Runtime rt(cfg, std::make_unique<icilk::PromptScheduler>());
//   auto f = rt.submit(/*priority=*/3, [] {
//     icilk::spawn([] { ... });         // fork
//     auto g = icilk::fut_create(...);  // future
//     icilk::sync();                    // join spawns
//     g.get();                          // join future
//   });
//   f.get();                            // external join
//
// Threading/lifetime rules:
//   * spawn / sync / fut_create / get may be called from task code only;
//     submit() and Future::get() work from any thread.
//   * The runtime must be quiesced (all submitted work finished) before
//     destruction; shutting down with live tasks is a programming error.
#pragma once

#include <cassert>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "concurrent/bitfield.hpp"
#include "concurrent/cacheline.hpp"
#include "core/future.hpp"
#include "core/scheduler.hpp"
#include "core/stats.hpp"
#include "core/task.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"
#include "fiber/stack.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "inject/inject.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"

namespace icilk {

class IdleIoPoller;

class Runtime {
 public:
  Runtime(const RuntimeConfig& cfg, std::unique_ptr<Scheduler> sched);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const RuntimeConfig& config() const noexcept { return cfg_; }
  Scheduler& scheduler() noexcept { return *sched_; }
  int num_workers() const noexcept { return cfg_.num_workers; }

  /// Requests shutdown and joins all workers. Idempotent. All submitted
  /// work must have completed.
  void shutdown();

  // ---- external submission (any thread) ----

  /// Runs `fn` as a detached task at priority `p`; join via the future.
  template <typename F>
  auto submit(Priority p, F&& fn) {
    using T = std::invoke_result_t<F>;
    auto st = Ref<FutureState<T>>::make(*this);
    Closure body = wrap_value<T>(st, std::forward<F>(fn));
    toss_task(p, std::move(body), Ref<FutureStateBase>(st), nullptr);
    return Future<T>(std::move(st));
  }

  // ---- in-task API (documented in api.hpp; these are the engines) ----

  /// spawn at the current priority: parks the caller as the stealable
  /// parent continuation and runs `body` next (work-first order).
  void spawn_impl(Closure body);

  /// spawn at priority `p`; same-priority behaves like spawn_impl, other
  /// priorities toss a fresh resumable deque to level `p` (footnote 3).
  /// In both cases the child is joined by the caller's sync().
  void spawn_at_impl(Priority p, Closure body);

  /// Waits for all children spawned by the current task. Defined inline
  /// below: the no-outstanding-children + clear-bitfield case (every sync
  /// whose children already ran serially, work-first order's common
  /// outcome) is two loads; everything else goes to sync_slow().
  void sync_impl();

  /// Starts a future routine at priority `p` (current priority if p < 0).
  template <typename F>
  auto fut_create_impl(Priority p, F&& fn) {
    using T = std::invoke_result_t<F>;
    auto st = Ref<FutureState<T>>::make(*this);
    Closure body = wrap_value<T>(st, std::forward<F>(fn));
    fut_spawn(p, std::move(body), Ref<FutureStateBase>(st));
    return Future<T>(std::move(st));
  }

  /// Current task's priority (callable from task code only).
  Priority current_priority() const;

  // ---- request-scoped causal tracing (obs/reqtrace.hpp) ----

  /// Marks the current task as the root of a request that arrived at
  /// `arrival_ns` (0 = now; pass the accept/read timestamp to fold dispatch
  /// latency into the queueing phase). Allocates a pooled ReqContext and
  /// binds it to the fiber chain: it follows the root through parks,
  /// steals, mugs, abandonment, and I/O suspensions, and is inherited by
  /// spawned children (for I/O-op tagging only). Returns the request id
  /// (0 when ICILK_OBS=OFF). Task code only; nested calls on a task
  /// already owning a request return its existing id.
  std::uint64_t req_begin(std::uint64_t arrival_ns = 0);

  /// Ends the current task's request: joins outstanding spawned children
  /// (so none keeps a stale context), folds the timeline into
  /// metrics().record_request + the worst-K reservoir, emits the kReqEnd
  /// trace record, and recycles the context. Future routines created by
  /// the request must be joined (get) BEFORE req_end. No-op if the current
  /// task owns no request.
  void req_end();

  /// Like req_end but discards the timeline (parse errors, aborted
  /// connections) instead of recording it.
  void req_abort();

  // ---- scheduler/reactor-facing internals ----

  /// Parks the calling fiber; `publish` runs on the worker's scheduler
  /// context immediately after the switch and is the ONLY place allowed to
  /// make the parked fiber visible to other threads. PostSwitchFn stores
  /// its captures inline, so parking never allocates.
  void park_current(PostSwitchFn publish);

  /// Routes a freshly-Resumable deque to the scheduler (any thread).
  void resumable(Ref<Deque> d);

  /// Per-level gauge of non-empty deques (Figure 2 census).
  std::int64_t census(Priority p) const {
    return census_[p].value.load(std::memory_order_relaxed);
  }
  std::atomic<std::int64_t>* census_slot(Priority p) {
    return &census_[p].value;
  }

  // ---- observability (src/obs/) ----

  /// Per-priority metrics: promptness response latency, aging delay, and
  /// per-level steal/mug/abandon/resume counters. Always on (cheap).
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Event trace rings (one per worker, plus reactor threads). Recording
  /// is gated by the sink's enable flag (cfg.trace_events, or toggled
  /// live) and compiled out entirely under ICILK_OBS=OFF.
  obs::TraceSink& trace_sink() noexcept { return trace_; }

  /// The flight-recorder watchdog (continuous invariant sampling +
  /// post-mortem bundles; src/obs/watchdog.hpp). Non-null only when
  /// cfg.watchdog_enabled and built ICILK_OBS=ON, so callers must
  /// null-check. Defined in both build modes so app/server code that
  /// surfaces watchdog state compiles unconditionally.
#if ICILK_OBS_ENABLED
  obs::Watchdog* watchdog() noexcept { return watchdog_.get(); }
  const obs::Watchdog* watchdog() const noexcept { return watchdog_.get(); }
#else
  obs::Watchdog* watchdog() noexcept { return nullptr; }
  const obs::Watchdog* watchdog() const noexcept { return nullptr; }
#endif

  /// The windowed time-series telemetry ring (epoch-sliced latency
  /// digests + counter deltas; src/obs/timeseries.hpp). Non-null only
  /// when cfg.timeseries_enabled, so callers must null-check.
  obs::TimeSeries* timeseries() noexcept { return timeseries_.get(); }
  const obs::TimeSeries* timeseries() const noexcept {
    return timeseries_.get();
  }

  /// The sampling profiler (src/obs/profiler.hpp). Always constructed
  /// when built ICILK_OBS=ON (it is cold until a window opens);
  /// nullptr when compiled out, so callers must null-check. Defined in
  /// both build modes so endpoint/server code compiles unconditionally.
#if ICILK_OBS_ENABLED
  obs::Profiler* profiler() noexcept { return profiler_.get(); }
  const obs::Profiler* profiler() const noexcept { return profiler_.get(); }
#else
  obs::Profiler* profiler() noexcept { return nullptr; }
  const obs::Profiler* profiler() const noexcept { return nullptr; }
#endif

  /// Records into the CURRENT thread's worker ring, if this is a worker
  /// thread (no-op elsewhere) — for subsystems like the reactor's
  /// submission path that run on task context.
  void trace_event(obs::EventKind k,
                   std::uint16_t level = obs::TraceEvent::kNoLevel16,
                   std::uint32_t arg = 0) noexcept;

  /// Sums worker stats. Safe anytime; precise at quiescence.
  StatsSnapshot stats_snapshot() const;
  /// Zeroes all worker time accumulators (not counters) — used by benches
  /// to scope waste/run measurements to the measurement window.
  void reset_time_stats();
  WorkerStats& worker_stats(int i) { return workers_[i]->stats; }

  bool shutting_down() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Count of dynamically detected priority inversions (a get() whose
  /// caller outranks the future's routine); always 0 unless
  /// cfg.detect_priority_inversions is set.
  std::uint64_t priority_inversions() const noexcept {
    return inversions_.load(std::memory_order_relaxed);
  }
  void note_priority_inversion(Priority waiter, Priority producer);

  // external-waiter support (see FutureStateBase)
  void wait_external_on(FutureStateBase& st);
  void notify_external();

  // ---- idle-poller registry (core/idle_poller.hpp) ----
  //
  // The reactor registers itself here so idle workers can adopt its epoll.
  // Refcounted handout: clear_idle_poller() nulls the slot and then spins
  // until every in-flight acquire has released, so the reactor can quiesce
  // before its epoll fd dies regardless of scheduler/reactor teardown
  // order. `worker_pollers_` is a publisher-side hint: the number of
  // workers parked in the registered poller's epoll, so completion
  // publishers know a kick() may be needed without paying the refcount
  // dance when no worker is parked.

  void set_idle_poller(IdleIoPoller* p) {
    idle_poller_.store(p, std::memory_order_seq_cst);
  }
  /// Unregisters `p` and blocks until no thread still holds a reference.
  void clear_idle_poller(IdleIoPoller* p);
  /// Pins the registered poller (refcount); nullptr if none. Pair with
  /// idle_poller_release().
  IdleIoPoller* idle_poller_acquire() {
    idle_poller_refs_.fetch_add(1, std::memory_order_seq_cst);
    IdleIoPoller* p = idle_poller_.load(std::memory_order_seq_cst);
    if (!p) idle_poller_refs_.fetch_sub(1, std::memory_order_release);
    return p;
  }
  void idle_poller_release() {
    idle_poller_refs_.fetch_sub(1, std::memory_order_release);
  }
  /// Kick one parked worker-poller, if any (pin + kick + release).
  void idle_poller_kick();
  int worker_pollers() const noexcept {
    return worker_pollers_.load(std::memory_order_seq_cst);
  }
  /// Reactor-side: +1 when a worker parks in the epoll, -1 when it leaves.
  void add_worker_pollers(int delta) noexcept {
    worker_pollers_.fetch_add(delta, std::memory_order_seq_cst);
  }

  Worker& worker_for_test(int i) { return *workers_[i]; }

  /// The fiber stack pool (sharded per-worker caches; see fiber/stack.hpp).
  /// Exposed for the `stats icilk` surface and benches.
  StackPool& stack_pool() noexcept { return stacks_; }
  const StackPool& stack_pool() const noexcept { return stacks_; }

 private:
  friend class FutureStateBase;
  friend void future_wait_slow(FutureStateBase& st);

  void worker_main(Worker& w);
  void run_next(Worker& w);
  /// Out-of-line remainder of sync_impl: promptness work, the failed-sync
  /// suspension, and the join protocol.
  void sync_slow();
  void finish_task(TaskFiber* tf);
  void retire_active(Worker& w);
  void dispatch_woken(Worker& w, Ref<Deque> d);

  /// Starts `body` as a tossed resumable deque at level p. `req` (if any)
  /// is the request the tossed child serves (inherited, never owned);
  /// sp_depth/sp_bdepth are the spawner's span clocks at the toss point
  /// (0 for external submissions — a new task-tree root).
  void toss_task(Priority p, Closure body, Ref<FutureStateBase> fut,
                 Frame* parent, obs::ReqContext* req = nullptr,
                 std::uint64_t sp_depth = 0, std::uint64_t sp_bdepth = 0);
  void req_finish(bool record);
  /// Closes the request `st` owns: timeline, metrics (when `record`),
  /// per-request work/span, and the unbinding.
  void close_request(Worker& w, TaskState& st, bool record);
  /// spawn/fut_create engine for task-context callers.
  void fut_spawn(Priority p, Closure body, Ref<FutureStateBase> fut);
  void spawn_linked(Priority p, Closure body);

  TaskFiber* alloc_task_fiber();
  void recycle(TaskFiber* tf);

  /// The obs sampler thread, running while the watchdog or the
  /// timeseries is on: each tick fills one WdSample and hands it to both.
  void sampler_main();
  /// Fills one sample: scheduler wd_fill + worker state words + census
  /// gauges + cumulative task count + deque-census registry + io gauges.
  /// Runs on the sampler thread; approximate/atomic reads only.
  void wd_fill_sample(obs::WdSample& s) const;

  template <typename T, typename F>
  static Closure wrap_value(Ref<FutureState<T>> st, F&& fn) {
    if constexpr (std::is_void_v<T>) {
      return Closure(std::forward<F>(fn));
    } else {
      return [st, f = std::forward<F>(fn)]() mutable { st->set_value(f()); };
    }
  }

  RuntimeConfig cfg_;
  obs::MetricsRegistry metrics_;
  obs::TraceSink trace_;
  std::unique_ptr<Scheduler> sched_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
#if ICILK_OBS_ENABLED
  std::unique_ptr<obs::Watchdog> watchdog_;
#endif
  std::unique_ptr<obs::TimeSeries> timeseries_;
  std::thread sampler_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;  ///< guarded by sampler_mu_
#if ICILK_OBS_ENABLED
  std::unique_ptr<obs::Profiler> profiler_;
#endif

  StackPool stacks_;
  SpinLock fiber_pool_mu_;
  std::vector<TaskFiber*> fiber_pool_;

  // external waiters (rare path, shared condvar)
  std::mutex ext_mu_;
  std::condition_variable ext_cv_;
  std::atomic<std::uint64_t> inversions_{0};

  // idle-poller registry (see the public accessors above)
  std::atomic<IdleIoPoller*> idle_poller_{nullptr};
  std::atomic<int> idle_poller_refs_{0};
  std::atomic<int> worker_pollers_{0};

  CacheAligned<std::atomic<std::int64_t>> census_[PriorityBitfield::kMaxLevels];
};

// ---------------------------------------------------------------------------
// Inlined hot paths
// ---------------------------------------------------------------------------
// The promptness hook sits on EVERY spawn / sync / fut_create / get, and
// get() additionally sits on every I/O operation (including the inline-
// syscall completions that never suspend). Their common cases reduce to a
// few loads, inlined here into the caller; anything that needs real
// scheduler work takes the out-of-line slow path.

/// True when the scheduler's inlined promptness gate (preop_fast_bits)
/// is armed AND discharges the check: one seq_cst snapshot shows nothing
/// above the worker's level, and no injection engine is installed (armed
/// crosspoints must see every decision point). False means the caller
/// must invoke the virtual pre_op_check.
inline bool preop_gate_pass(Scheduler& sched, const Worker& w) noexcept {
  const PriorityBitfield* bits = sched.preop_fast_bits();
  // Two single-bit shifts, not `>> (w.level + 1)`: level 63 must shift
  // out the whole word, and a shift count of 64 is UB.
  return bits != nullptr && !inject::armed() &&
         (bits->load() >> w.level >> 1) == 0;
}

/// Spanprof half of get(): joins the producing routine's span (and, once,
/// its work) into the caller, or — for externally-completed futures
/// (reactor I/O, timers) — adds the measured wall wait as serial floor.
/// Folds to nothing when ICILK_OBS=OFF. `wait_wall_ns` is nonzero
/// only on the suspension path (future_wait_slow).
inline void sp_join_future(FutureStateBase& fu, std::uint64_t wait_wall_ns) {
#if ICILK_OBS_ENABLED
  if (fu.sp_routine_ran()) {
    obs::SpanAcc* acc = obs::sp_strand_now();
    if (acc == nullptr) return;
    acc->work += fu.sp_take_work();
    if (fu.sp_depth_end() > acc->depth) acc->depth = fu.sp_depth_end();
    if (fu.sp_bdepth_end() > acc->bdepth) acc->bdepth = fu.sp_bdepth_end();
  } else if (wait_wall_ns != 0) {
    obs::SpanAcc* acc = obs::sp_strand_now();
    if (acc == nullptr) return;
    // No task-side depth accounts for this wait: it is the request's
    // serial I/O floor and sits on the critical path by definition.
    acc->depth += wait_wall_ns;
    acc->bdepth += wait_wall_ns;
  }
#else
  (void)fu;
  (void)wait_wall_ns;
#endif
}

inline void future_wait(FutureStateBase& st) {
  Worker* w = this_worker();
  if (w != nullptr && w->current != nullptr && st.ready() &&
      preop_gate_pass(w->rt->scheduler(), *w)) {
    // Ready future, nothing above this level: the whole wait is the
    // loads above. Inversion detection also has nothing to record — it
    // only counts waits that observe a not-yet-ready lower-priority
    // producer, and this future is ready.
    assert(!st.has_runtime() || &st.runtime() == w->rt);
    sp_join_future(st, 0);
    return;
  }
  future_wait_slow(st);
}

inline void Runtime::sync_impl() {
  Worker* w = this_worker();
  assert(w != nullptr && w->current != nullptr);
  if (w->current->st.frame.outstanding() == 0 &&
      preop_gate_pass(*sched_, *w)) {
    // Children all finished serially; nothing above this level. Fold any
    // child work/span merges before control continues past the join.
    sp_fold_frame(w->current->st);
    return;
  }
  sync_slow();
}

}  // namespace icilk
