#include "core/runtime.hpp"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/idle_poller.hpp"
#include "inject/inject.hpp"
#include "obs/thread_ctx.hpp"

namespace icilk {

namespace {
thread_local Worker* tls_worker = nullptr;
}  // namespace

// CRITICAL: fibers migrate between OS threads across parks, but compilers
// legitimately cache thread_local addresses/values within a function (a
// plain function cannot change threads mid-body -- ours can). Every read
// that may follow a park MUST therefore go through this accessor, which
// noipa makes fully opaque so each call re-derives the current thread's
// slot. Direct tls_worker access is only allowed in worker_main (which
// never migrates).
__attribute__((noipa)) Worker* this_worker() noexcept { return tls_worker; }

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

Runtime::Runtime(const RuntimeConfig& cfg, std::unique_ptr<Scheduler> sched)
    : cfg_(cfg),
      metrics_(cfg.num_levels),
      trace_(cfg.trace_ring_capacity, cfg.trace_events),
      sched_(std::move(sched)),
      stacks_(cfg.stack_size) {
  assert(cfg_.num_workers >= 1);
#if ICILK_OBS_ENABLED
  // Calibrate the TSC->ns factor BEFORE any worker arms a strand clock:
  // the lazy first calibration sleeps ~20ms, which must never be charged
  // to a strand.
  if (cfg_.spanprof_enabled) (void)detail::ns_per_tick();
#endif
  sched_->attach(*this);
  workers_.reserve(cfg_.num_workers);
  for (int i = 0; i < cfg_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i, cfg_.seed));
    workers_[i]->trace =
        &trace_.acquire_ring("worker" + std::to_string(i));
  }
#if ICILK_OBS_ENABLED
  {
    // Must exist before the first worker thread runs: worker_main
    // registers with the profiler in its prologue. Cold until a window
    // opens (timers are created disarmed).
    obs::Profiler::Config pc;
    pc.default_hz = cfg_.profiler_hz;
    pc.metrics = &metrics_;
    pc.num_levels = cfg_.num_levels;
    profiler_ = std::make_unique<obs::Profiler>(pc);
  }
#endif
  threads_.reserve(cfg_.num_workers);
  for (int i = 0; i < cfg_.num_workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(*workers_[i]); });
  }
  sched_->start();
  if (cfg_.timeseries_enabled) {
    // Before the watchdog, so trip bundles can embed the epoch ring.
    obs::TimeSeries::Config tc;
    tc.epoch_ms = cfg_.timeseries_epoch_ms;
    tc.epochs = cfg_.timeseries_epochs;
    tc.metrics = &metrics_;
    tc.scheduler = sched_->name();
    timeseries_ = std::make_unique<obs::TimeSeries>(tc);
  }
#if ICILK_OBS_ENABLED
  if (cfg_.watchdog_enabled) {
    obs::Watchdog::Config wc;
    wc.period_ms = cfg_.watchdog_period_ms;
    wc.bundle_dir = cfg_.watchdog_bundle_dir;
    wc.scheduler = sched_->name();
    wc.handle_sigusr2 = cfg_.watchdog_sigusr2;
    wc.metrics = &metrics_;
    wc.trace = &trace_;
    wc.timeseries = timeseries_.get();
#if ICILK_INJECT_ENABLED
    wc.inject_seed_fn = []() -> std::uint64_t {
      inject::Engine* e = inject::Engine::active();
      return e != nullptr ? e->config().seed : 0;
    };
#endif
    watchdog_ = std::make_unique<obs::Watchdog>(wc);
  }
#endif
  if (watchdog() != nullptr || timeseries_ != nullptr) {
    sampler_ = std::thread([this] { sampler_main(); });
  }
}

Runtime::~Runtime() {
  shutdown();
  for (TaskFiber* tf : fiber_pool_) delete tf;
}

void Runtime::shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) {
    // Already shut down; just make sure threads are joined.
  }
  // Stop the sampler FIRST: wd_fill_sample walks workers_ and the
  // scheduler, so it must quiesce before either starts tearing down.
  {
    std::lock_guard<std::mutex> lk(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  sched_->stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void Runtime::sampler_main() {
  // One sample per tick feeds both consumers: the watchdog every tick,
  // the timeseries whenever its epoch deadline has passed. Waiting a full
  // period after each tick (not to a fixed grid) makes a late wake delay
  // every later sample alike, which keeps the promptness detector (clocked
  // from the first sample that sees a level) from falling behind the aging
  // detector (clocked from the deque's own stamp) on the same stuck deque.
  const auto period = std::chrono::milliseconds(
      watchdog() != nullptr ? watchdog()->config().period_ms
                            : timeseries_->config().epoch_ms);
  std::unique_lock<std::mutex> lk(sampler_mu_);
  while (!sampler_stop_) {
    lk.unlock();
    obs::WdSample s;
    s.t_ns = now_ns();
    wd_fill_sample(s);
#if ICILK_OBS_ENABLED
    if (watchdog_) watchdog_->sample_once(s);
#endif
    if (timeseries_ && timeseries_->due(s.t_ns)) timeseries_->close_epoch(s);
    lk.lock();
    sampler_cv_.wait_for(lk, period, [this] { return sampler_stop_; });
  }
}

void Runtime::wd_fill_sample(obs::WdSample& s) const {
  s.num_levels = cfg_.num_levels < obs::WdSample::kMaxLevels
                     ? cfg_.num_levels
                     : obs::WdSample::kMaxLevels;
  s.num_workers = cfg_.num_workers < obs::WdSample::kMaxWorkers
                      ? cfg_.num_workers
                      : obs::WdSample::kMaxWorkers;
  sched_->wd_fill(s);
  std::uint64_t tasks = 0;
  for (int i = 0; i < s.num_workers; ++i) {
    const std::uint32_t v =
        workers_[i]->wd_state.load(std::memory_order_relaxed);
    s.worker_state[i] =
        static_cast<std::uint8_t>(obs::wd_state_of(v));
    s.worker_level[i] = static_cast<std::uint8_t>(obs::wd_level_of(v));
  }
  // Cumulative completions over ALL workers (not just the sampled
  // prefix): the census-leak detector compares deltas against growth.
  for (const auto& w : workers_) tasks += w->stats.tasks_run;
  s.tasks_run = tasks;
  for (int p = 0; p < s.num_levels; ++p) {
    s.census[p] = census_[p].value.load(std::memory_order_relaxed);
  }
#if ICILK_OBS_ENABLED  // the census registry is the watchdog's
  obs::wd_census_fill(s, s.t_ns);
#endif
  s.io_armed = metrics_.io_gauge(obs::IoGauge::kArmedOps);
  s.timers_pending = metrics_.io_gauge(obs::IoGauge::kTimersPending);
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

void Runtime::worker_main(Worker& w) {
  tls_worker = &w;
  // Request hops and injected decisions on this worker land in its own
  // trace ring; the profiler gets a (disarmed) SIGPROF timer for it.
  obs::ThreadScope scope(w.trace, obs::ProfThreadKind::kWorker, w.id,
                         profiler());
  for (;;) {
    if (!w.next.valid()) {
      if (w.active) retire_active(w);
      if (!sched_->acquire(w)) break;
      assert(w.next.valid() && w.active &&
             w.active->state() == Deque::State::Active &&
             w.active->priority() == w.level);
    }
    run_next(w);
  }
  tls_worker = nullptr;
}

void Runtime::retire_active(Worker& w) {
  // Only an exhausted Active deque reaches here: suspension/abandonment
  // paths clear w.active in their publish callbacks.
  assert(w.active->state() == Deque::State::Active);
  if (w.active->kill_if_exhausted()) {
    sched_->on_deque_dead(w, *w.active);
    ICILK_TRACE_RECORD(w.trace, obs::EventKind::kDequeDead, w.level, 0);
  }
  w.active.reset();
}

void Runtime::run_next(Worker& w) {
  Continuation c = std::move(w.next);
  w.next.clear();

  TaskFiber* tf;
  if (c.resume != nullptr) {
    tf = c.resume;
  } else {
    tf = alloc_task_fiber();
    tf->st.rt = this;
    tf->st.parent = c.parent;
    tf->st.future = std::move(c.future);
    tf->st.priority = c.priority;
    tf->st.req = c.req;  // inherited; fresh closures are never owners
    // Spawned children start on their parent's critical path (the pooled
    // fiber's acc was zeroed at recycle; work stays 0).
    tf->st.sp.depth = c.sp_depth;
    tf->st.sp.bdepth = c.sp_bdepth;
    tf->fiber.prepare(
        [this, tf, body = std::move(c.start)](Fiber&) mutable {
          try {
            body();
          } catch (...) {
            if (tf->st.future) {
              tf->st.future->fail(std::current_exception());
            } else {
              // Like Cilk: an exception escaping a task with no handle to
              // carry it is fatal.
              std::fprintf(stderr,
                           "icilk: uncaught exception in spawned task\n");
              std::terminate();
            }
          }
          body = nullptr;  // release captures before the implicit sync
          // Implicit sync at task end (Cilk semantics): the task's frame
          // must be quiescent before its fiber is recycled.
          sync_impl();
        },
        [this, tf] { finish_task(tf); });
  }

  assert(tf->st.priority == w.level);
  w.current = tf;
  // The dispatch bracket (obs/thread_ctx.hpp) binds this thread's context
  // to the task for the switch; its tick readings time the work clock.
  const std::uint64_t t0 = obs::strand_enter(
      tf->st.req, tf->st.req_owner, static_cast<int>(tf->st.priority),
      cfg_.spanprof_enabled ? &tf->st.sp : nullptr, cfg_.spanprof_precise);
  switch_context(w.sched_ctx, tf->fiber.context());
  // Leave BEFORE publish(): the parked fiber is not yet visible to
  // thieves, so the strand flush cannot race a resumer.
  w.stats.work_ticks.add(obs::strand_leave(static_cast<int>(w.level)) - t0);
  w.current = nullptr;
  if (w.post_switch) {
    auto publish = std::move(w.post_switch);
    w.post_switch = nullptr;
    publish();
  }
}

void Runtime::park_current(PostSwitchFn publish) {
  Worker* w = this_worker();
  assert(w != nullptr && w->current != nullptr);
  assert(!w->post_switch && "nested park publish");
  w->post_switch = std::move(publish);
  TaskFiber* self = w->current;
  switch_context(self->fiber.context(), w->sched_ctx);
  // Resumed — possibly on a different worker thread.
  assert(this_worker() != nullptr && this_worker()->current == self &&
         "fiber resumed with stale worker bookkeeping");
}

// ---------------------------------------------------------------------------
// Task completion and the join protocol
// ---------------------------------------------------------------------------

void Runtime::finish_task(TaskFiber* tf) {
  Worker* w = this_worker();
  w->stats.tasks_run++;
  // Close the final strand now: the totals feed the future handoff and the
  // parent-frame merge below, both of which must precede our join
  // decrement / completion. (Folds to nothing when ICILK_OBS=OFF.)
  obs::sp_strand_now();

#if ICILK_OBS_ENABLED
  if (tf->st.req_owner) {
    // Safety net: the root task ended without req_end (early return or
    // exception path). Record the timeline rather than leak/lose it.
    close_request(*w, tf->st, true);
  }
  tf->st.req = nullptr;
#endif

  // Thanks to the implicit sync, our own children are quiescent.
  assert(tf->st.frame.joins.load(std::memory_order_relaxed) == 0);
  assert(tf->st.frame.parked.load(std::memory_order_relaxed) == nullptr);

  if (tf->st.future) {
#if ICILK_OBS_ENABLED
    // Routine->getter span handoff: stored before complete(), whose
    // release on ready_ publishes it to every getter.
    tf->st.future->sp_store_routine(tf->st.sp.work, tf->st.sp.depth,
                                    tf->st.sp.bdepth);
#endif
    tf->st.future->complete();
    tf->st.future.reset();
  }

  Frame* pf = tf->st.parent;
  // Deposit our work/span into the parent frame BEFORE the join decrement
  // below: the decrement's seq_cst ordering is what publishes the merge to
  // the syncing parent.
  if (pf != nullptr) sp_merge_child_into(*pf, tf->st.sp);
  TaskFiber* parent_cont = w->active->pop_bottom();
  if (parent_cont != nullptr) {
    // Serial fast path: our parent's continuation is still at the bottom —
    // nobody stole it, so the parent cannot be parked at a sync; just
    // credit the join and resume it in place.
    if (pf != nullptr) {
      pf->joins.fetch_sub(Frame::kChildUnit, std::memory_order_seq_cst);
    }
    assert(!w->next.valid());
    w->next = Continuation::of_fiber(parent_cont);
  } else if (pf != nullptr) {
    // Continuation was stolen (or we are a tossed/cross-level child): full
    // join protocol (see Frame). We may touch pf->parked ONLY in the
    // old==3 case — then the parent is parked and we are its sole waker,
    // so the frame cannot be recycled under us.
    const std::uint64_t old =
        pf->joins.fetch_sub(Frame::kChildUnit, std::memory_order_seq_cst);
    assert(old >= Frame::kChildUnit);
    if (old == (Frame::kChildUnit | Frame::kParkedBit)) {
      Deque* parked = pf->parked.exchange(nullptr, std::memory_order_seq_cst);
      assert(parked != nullptr && "parked bit set but no deque published");
      auto d = Ref<Deque>::adopt(parked);
      d->make_resumable();
      dispatch_woken(*w, std::move(d));
    }
  }

  // Switch away for good; the fiber is recycled on the scheduler context.
  Worker* w2 = this_worker();
  w2->post_switch = [this, tf] { recycle(tf); };
  switch_context(tf->fiber.context(), w2->sched_ctx);
  // not reached
}

void Runtime::dispatch_woken(Worker& w, Ref<Deque> d) {
  // Provably-good-steal style: if the woken deque is at our level and we
  // have nothing queued, mug it ourselves instead of going through the
  // pool — our active deque is exhausted anyway.
  if (!w.next.valid() && d->priority() == w.level) {
    Continuation c;
    if (d->try_mug(c)) {
      const Priority p = d->priority();
      const std::uint64_t since = d->take_resumable_stamp();
      if (since != 0) {
        const std::uint64_t now = now_ns();
        const std::uint64_t delay = now > since ? now - since : 0;
        metrics_.record_aging(p, delay);
        // The measured resumable->running delay IS this resume's scheduler
        // burden: charge it to the resumed fiber's burdened span and feed
        // the global estimator.
        sp_charge_resume(c, delay);
      }
      metrics_.count(obs::EventKind::kResume, p);
      ICILK_TRACE_RECORD(w.trace, obs::EventKind::kResume, p, 0);
      if (w.active) retire_active(w);
      w.active = std::move(d);
      w.next = std::move(c);
      return;
    }
  }
  resumable(std::move(d));
}

void Runtime::resumable(Ref<Deque> d) {
  assert(d);
  // A suspended deque with stealable entries stays in its pool, so a thief
  // can mug it as soon as make_resumable returns. Then it runs again (and
  // may even have suspended anew) and must not be published.
  if (d->state() != Deque::State::Resumable) return;
  sched_->on_resumable(std::move(d));
}

// ---------------------------------------------------------------------------
// spawn / sync / fut_create / toss
// ---------------------------------------------------------------------------

namespace {

// The promptness hook on the paths that stayed out of line (spawn parks
// a fiber regardless; the inlined sync/get fast paths in runtime.hpp use
// preop_gate_pass directly). Gate discharges the check, or the virtual
// pre_op_check re-snapshots and does the real work.
inline void pre_op(Scheduler& sched, Worker& w) {
  if (preop_gate_pass(sched, w)) return;
  sched.pre_op_check(w);
}

}  // namespace

void Runtime::spawn_impl(Closure body) {
  Worker* w = this_worker();
  assert(w != nullptr && w->current != nullptr &&
         "spawn must be called from task code; use submit() elsewhere");
  spawn_linked(w->current->st.priority, std::move(body));
}

void Runtime::spawn_at_impl(Priority p, Closure body) {
  assert(p >= 0 && p <= kMaxPriority);
  Worker* w = this_worker();
  if (w == nullptr || w->current == nullptr) {
    // External thread: detached fire-and-forget task.
    toss_task(p, std::move(body), nullptr, nullptr);
    return;
  }
  spawn_linked(p, std::move(body));
}

void Runtime::spawn_linked(Priority p, Closure body) {
  Worker* w = this_worker();
  pre_op(*sched_, *w);
  w = this_worker();  // may have migrated
  TaskFiber* self = w->current;
  w->stats.spawns++;
  ICILK_TRACE_RECORD(w->trace, obs::EventKind::kSpawn, p, 0);
  self->st.frame.joins.fetch_add(Frame::kChildUnit,
                                 std::memory_order_seq_cst);

  if (p != self->st.priority) {
    // Cross-priority spawn: "a deque is generated to store the subroutine
    // and tossed to the appropriate priority level" (footnote 3). The
    // parent keeps running; sync() still joins the child.
    std::uint64_t sp_d = 0, sp_bd = 0;
    if (obs::SpanAcc* acc = obs::sp_strand_now()) {
      sp_d = acc->depth;
      sp_bd = acc->bdepth + obs::sp_overhead_est();
    }
    toss_task(p, std::move(body), nullptr, &self->st.frame, self->st.req,
              sp_d, sp_bd);
    return;
  }

  park_current([this, self, body = std::move(body), p]() mutable {
    Worker& w2 = *this_worker();
    // Read st BEFORE push_bottom publishes our continuation: once it is
    // visible a thief may resume it and flush further strands into
    // self->st.sp, which the child must not inherit. The parent's clocks
    // are current here — run_next flushed its strand right after the
    // park's switch returned, before this publish ran.
    obs::ReqContext* const req = self->st.req;
    const std::uint64_t sp_d = self->st.sp.depth;
    const std::uint64_t sp_bd = self->st.sp.bdepth + obs::sp_overhead_est();
    w2.active->push_bottom(self);
    sched_->on_push(w2);
    assert(!w2.next.valid());
    w2.next =
        Continuation::of_closure(std::move(body), &self->st.frame, nullptr, p);
    w2.next.req = req;  // child serves the same request (non-owner)
    w2.next.sp_depth = sp_d;
    w2.next.sp_bdepth = sp_bd;
  });
  // Resumed: serially after the child finished, by a thief who stole our
  // continuation, or by a mug if the deque suspended below us.
}

void Runtime::fut_spawn(Priority p, Closure body, Ref<FutureStateBase> fut) {
  Worker* w = this_worker();
  if (w == nullptr || w->current == nullptr) {
    toss_task(p < 0 ? kDefaultPriority : p, std::move(body), std::move(fut),
              nullptr);
    return;
  }
  pre_op(*sched_, *w);
  w = this_worker();
  TaskFiber* self = w->current;
  w->stats.spawns++;
  const Priority cur = self->st.priority;
  const Priority target = (p < 0) ? cur : p;
  ICILK_TRACE_RECORD(w->trace, obs::EventKind::kSpawn, target, 0);
  assert(target >= 0 && target <= kMaxPriority);

  if (target != cur) {
    // Future routines are not joined by sync (they are joined by get), so
    // no parent frame is linked.
    std::uint64_t sp_d = 0, sp_bd = 0;
    if (obs::SpanAcc* acc = obs::sp_strand_now()) {
      sp_d = acc->depth;
      sp_bd = acc->bdepth + obs::sp_overhead_est();
    }
    toss_task(target, std::move(body), std::move(fut), nullptr, self->st.req,
              sp_d, sp_bd);
    return;
  }

  fut->set_routine_priority(target);
  park_current(
      [this, self, body = std::move(body), fut = std::move(fut),
       target]() mutable {
        Worker& w2 = *this_worker();
        // Read st BEFORE push_bottom publishes our parked continuation: a
        // future routine holds no join unit on this frame, so once self is
        // visible a thief can resume it, run it to completion, and recycle
        // the TaskFiber under us (spawn_linked reads first for the same
        // reason).
        obs::ReqContext* const req = self->st.req;
        const std::uint64_t sp_d = self->st.sp.depth;
        const std::uint64_t sp_bd =
            self->st.sp.bdepth + obs::sp_overhead_est();
        w2.active->push_bottom(self);
        sched_->on_push(w2);
        assert(!w2.next.valid());
        w2.next = Continuation::of_closure(std::move(body), nullptr,
                                           std::move(fut), target);
        w2.next.req = req;
        w2.next.sp_depth = sp_d;
        w2.next.sp_bdepth = sp_bd;
      });
}

void Runtime::toss_task(Priority p, Closure body, Ref<FutureStateBase> fut,
                        Frame* parent, obs::ReqContext* req,
                        std::uint64_t sp_depth, std::uint64_t sp_bdepth) {
  assert(p >= 0 && p <= kMaxPriority);
  if (fut) fut->set_routine_priority(p);
  auto c =
      Continuation::of_closure(std::move(body), parent, std::move(fut), p);
  c.req = req;
  c.sp_depth = sp_depth;
  c.sp_bdepth = sp_bdepth;
  auto d = Deque::new_resumable(std::move(c), census_slot(p));
  resumable(std::move(d));
}

// Slow path of sync_impl (inline fast path in runtime.hpp): outstanding
// children, a positive bitfield snapshot, or no fast gate.
void Runtime::sync_slow() {
  Worker* w = this_worker();
  assert(w != nullptr && w->current != nullptr);
  pre_op(*sched_, *w);
  w = this_worker();
  TaskFiber* self = w->current;
  Frame& fr = self->st.frame;

  if (fr.outstanding() == 0) {
    sp_fold_frame(self->st);
    return;  // fast path
  }
  w->stats.syncs_failed++;
  metrics_.count(obs::EventKind::kSuspend, self->st.priority);
  ICILK_TRACE_RECORD(w->trace, obs::EventKind::kSuspend, self->st.priority,
                     0);

  // Crosspoint: widen the window where the last child finishes while we
  // park (the self-wake edge of the join protocol).
  inject::maybe_pause(inject::probe(inject::Point::kSuspend));
  park_current([this, self] {
    Worker& w2 = *this_worker();
    Frame& fr2 = self->st.frame;
    Ref<Deque> d = w2.active;
    d->suspend(self, self->st.req, self->st.req_owner);
    sched_->on_suspend(w2, *d);
    w2.active.reset();

    // Publish the parked deque, THEN set the parked bit. A child observing
    // the bit (old == 3 at its decrement) is guaranteed to see the
    // pointer. If the counter hit zero before our fetch_or, every child
    // is gone and none will ever touch this frame again — we self-wake.
    Deque* raw = d.release();
    fr2.parked.store(raw, std::memory_order_seq_cst);
    const std::uint64_t old =
        fr2.joins.fetch_or(Frame::kParkedBit, std::memory_order_seq_cst);
    if ((old >> 1) == 0) {
      Deque* back = fr2.parked.exchange(nullptr, std::memory_order_seq_cst);
      assert(back != nullptr && "self-wake raced an impossible child");
      auto rd = Ref<Deque>::adopt(back);
      rd->make_resumable();
      dispatch_woken(w2, std::move(rd));
    }
  });

  // Resumed (by the last child or by the self-wake): clear the parked bit
  // for the frame's next sync round.
  fr.joins.fetch_and(~Frame::kParkedBit, std::memory_order_seq_cst);
  assert(fr.outstanding() == 0);
  // Fold the children's work/span merges (their seq_cst join decrements
  // ordered the deposits before our wake). Nothing wall-clock is added for
  // the suspension itself: a sync wait's span IS the slowest child's
  // depth, which just merged.
  sp_fold_frame(self->st);
}

Priority Runtime::current_priority() const {
  Worker* w = this_worker();
  assert(w != nullptr && w->current != nullptr);
  return w->current->st.priority;
}

// ---------------------------------------------------------------------------
// Request-scoped causal tracing (obs/reqtrace.hpp)
// ---------------------------------------------------------------------------

std::uint64_t Runtime::req_begin(std::uint64_t arrival_ns) {
#if ICILK_OBS_ENABLED
  Worker* w = this_worker();
  assert(w != nullptr && w->current != nullptr &&
         "req_begin must be called from task code");
  TaskFiber* self = w->current;
  if (self->st.req != nullptr) {
    // Already serving a request (nested begin, or a child task): keep it.
    return self->st.req_owner ? self->st.req->id : 0;
  }
  obs::ReqContext* rc = obs::ReqContext::create();
  rc->start(metrics_.next_request_id(),
            static_cast<std::uint16_t>(self->st.priority), arrival_ns);
  self->st.req = rc;
  self->st.req_owner = true;
  obs::thread_ctx().req = rc;
  ICILK_TRACE_RECORD(w->trace, obs::EventKind::kReqBegin, self->st.priority,
                     static_cast<std::uint32_t>(rc->id));
  rc->enter(obs::ReqPhase::kExecuting);
  // Snapshot the fiber's work/span clocks: per-request deltas are computed
  // against these baselines at req_finish (the accumulators keep running
  // across requests served by the same pooled fiber).
  if (obs::SpanAcc* acc = obs::sp_strand_now()) {
    acc->req_work0 = acc->work;
    acc->req_depth0 = acc->depth;
    acc->req_bdepth0 = acc->bdepth;
  }
  return rc->id;
#else
  (void)arrival_ns;
  return 0;
#endif
}

void Runtime::req_end() { req_finish(true); }
void Runtime::req_abort() { req_finish(false); }

void Runtime::req_finish(bool record) {
#if ICILK_OBS_ENABLED
  Worker* w = this_worker();
  assert(w != nullptr && w->current != nullptr);
  TaskFiber* self = w->current;
  if (self->st.req == nullptr || !self->st.req_owner) return;
  // Join spawned children first: they carry the context pointer for I/O
  // tagging and must not outlive it.
  sync_impl();
  close_request(*this_worker(), self->st, record);  // sync may migrate
#else
  (void)record;
#endif
}

#if ICILK_OBS_ENABLED
void Runtime::close_request(Worker& w, TaskState& st, bool record) {
  obs::ReqContext* rc = st.req;
  const std::uint64_t total = rc->close();
  ICILK_TRACE_RECORD(w.trace, obs::EventKind::kReqEnd, st.priority,
                     static_cast<std::uint32_t>(rc->id));
  if (record) {
    metrics_.record_request(*rc, total);
    // Every child has joined, so the fiber's accumulators hold the whole
    // request DAG; deltas against the req_begin baselines are this
    // request's work and span.
    obs::sp_strand_now();
    if (st.sp.depth > st.sp.req_depth0) {
      metrics_.record_parallelism(st.priority, rc->id,
                                  st.sp.work - st.sp.req_work0,
                                  st.sp.depth - st.sp.req_depth0,
                                  st.sp.bdepth - st.sp.req_bdepth0);
    }
  }
  st.req = nullptr;
  st.req_owner = false;
  obs::thread_ctx().req = nullptr;
  obs::ReqContext::destroy(rc);
}
#endif  // ICILK_OBS_ENABLED

// ---------------------------------------------------------------------------
// Futures: waiting and completion
// ---------------------------------------------------------------------------

// Slow path of future_wait (inline fast path in runtime.hpp): external
// waiters, not-ready futures, a positive bitfield snapshot, or no fast
// gate. Self-contained — it redoes the promptness check it was gated on.
void future_wait_slow(FutureStateBase& st) {
  Worker* w = this_worker();
  if (w == nullptr || w->current == nullptr) {
    st.wait_external();
    return;
  }
  Runtime& rt = st.runtime();
  assert(&rt == w->rt && "future belongs to a different runtime");
  if (rt.config().detect_priority_inversions) {
    const int producer = st.routine_priority();
    const Priority waiter = w->current->st.priority;
    if (producer >= 0 && waiter > producer && !st.ready()) {
      rt.note_priority_inversion(waiter, producer);
    }
  }
  pre_op(rt.scheduler(), *w);
  w = this_worker();
  if (st.ready()) {
    sp_join_future(st, 0);
    return;
  }

  w->stats.gets_suspended++;
  rt.metrics().count(obs::EventKind::kSuspend, w->current->st.priority);
  ICILK_TRACE_RECORD(w->trace, obs::EventKind::kSuspend,
                     w->current->st.priority, 0);
  // Crosspoint: stall between the ready() check and the park, widening
  // the window where the future completes while the deque suspends (the
  // add_waiter-lost race the publish protocol must absorb).
  inject::maybe_pause(inject::probe(inject::Point::kSuspend));
  // Wall clock around the park: for an EXTERNALLY completed future (I/O,
  // timer — no routine ran) the measured wait is the serial floor of the
  // request and joins the span directly in sp_join_future.
  const std::uint64_t sp_wall0 = obs::compiled_in() ? now_ns() : 0;
  rt.park_current([&rt, &st, self = w->current] {
    Worker& w2 = *this_worker();
    Ref<Deque> d = w2.active;
    d->suspend(self, self->st.req, self->st.req_owner);
    rt.scheduler().on_suspend(w2, *d);
    w2.active.reset();
    if (!st.add_waiter(d)) {
      // Completed in the meantime; resume the deque ourselves.
      d->make_resumable();
      rt.dispatch_woken(w2, std::move(d));
    }
  });
  assert(st.ready());
  sp_join_future(st, obs::compiled_in() ? now_ns() - sp_wall0 : 0);
}

FutureStateBase::~FutureStateBase() {
  // Drop leftover waiter references.
  if (first_waiter_ != nullptr) Ref<Deque>::adopt(first_waiter_);
  for (Deque* d : extra_waiters_) Ref<Deque>::adopt(d);
}

bool FutureStateBase::add_waiter(Ref<Deque> d) {
  assert(rt_ != nullptr && "runtime-less future cannot suspend deques");
  LockGuard<SpinLock> g(mu_);
  if (ready_.load(std::memory_order_relaxed)) return false;
  if (first_waiter_ == nullptr) {
    first_waiter_ = d.release();
  } else {
    extra_waiters_.push_back(d.release());
  }
  return true;
}

namespace {
// Process-wide wait channel for runtime-less futures (see future.hpp).
std::mutex g_orphan_wait_mu;
std::condition_variable g_orphan_wait_cv;
}  // namespace

void FutureStateBase::complete() {
  Deque* first = nullptr;
  std::vector<Deque*> extra;
  {
    LockGuard<SpinLock> g(mu_);
    assert(!ready_.load(std::memory_order_relaxed) && "double completion");
    ready_.store(true, std::memory_order_seq_cst);
    first = std::exchange(first_waiter_, nullptr);
    extra.swap(extra_waiters_);
  }
  const auto wake = [this](Deque* raw) {
    auto d = Ref<Deque>::adopt(raw);
    d->make_resumable();
    rt_->resumable(std::move(d));
  };
  if (first != nullptr) wake(first);
  for (Deque* raw : extra) wake(raw);
  if (has_external_waiter_.load(std::memory_order_acquire)) {
    if (rt_ != nullptr) {
      rt_->notify_external();
    } else {
      std::lock_guard<std::mutex> lk(g_orphan_wait_mu);
      g_orphan_wait_cv.notify_all();
    }
  }
}

void FutureStateBase::wait_external() {
  if (rt_ != nullptr) {
    rt_->wait_external_on(*this);
    return;
  }
  std::unique_lock<std::mutex> lk(g_orphan_wait_mu);
  has_external_waiter_.store(true, std::memory_order_seq_cst);
  g_orphan_wait_cv.wait(lk, [&] { return ready(); });
}

void Runtime::wait_external_on(FutureStateBase& st) {
  std::unique_lock<std::mutex> lk(ext_mu_);
  st.has_external_waiter_.store(true, std::memory_order_seq_cst);
  ext_cv_.wait(lk, [&] { return st.ready(); });
}

void Runtime::note_priority_inversion(Priority waiter, Priority producer) {
  // Log the first occurrence loudly (the type systems in the paper's
  // prior work would have rejected this program); count the rest.
  if (inversions_.fetch_add(1, std::memory_order_relaxed) == 0) {
    std::fprintf(stderr,
                 "icilk: PRIORITY INVERSION detected: task at priority %d "
                 "blocked on a future routine at priority %d — bounded "
                 "response times cannot be guaranteed (see Section 2 of "
                 "the paper). Further inversions counted silently.\n",
                 waiter, producer);
  }
}

void Runtime::notify_external() {
  // Lock/unlock pairs with wait_external_on to close the missed-wakeup
  // window between the waiter's predicate check and its wait.
  std::lock_guard<std::mutex> lk(ext_mu_);
  ext_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Idle-poller registry (core/idle_poller.hpp)
// ---------------------------------------------------------------------------

void Runtime::clear_idle_poller(IdleIoPoller* p) {
  IdleIoPoller* cur = idle_poller_.load(std::memory_order_seq_cst);
  if (cur != p && cur != nullptr) return;  // someone else's registration
  idle_poller_.exchange(nullptr, std::memory_order_seq_cst);
  // Quiesce: an acquirer that loaded `p` before the exchange still holds a
  // reference; wait for it to release before the caller tears `p` down.
  while (idle_poller_refs_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

void Runtime::idle_poller_kick() {
  if (IdleIoPoller* p = idle_poller_acquire()) {
    p->kick();
    idle_poller_release();
  }
}

// ---------------------------------------------------------------------------
// Fiber pooling
// ---------------------------------------------------------------------------

TaskFiber* Runtime::alloc_task_fiber() {
  {
    LockGuard<SpinLock> g(fiber_pool_mu_);
    if (!fiber_pool_.empty()) {
      TaskFiber* tf = fiber_pool_.back();
      fiber_pool_.pop_back();
      return tf;
    }
  }
  return new TaskFiber(stacks_.get());
}

void Runtime::recycle(TaskFiber* tf) {
  tf->st.reset();
  LockGuard<SpinLock> g(fiber_pool_mu_);
  fiber_pool_.push_back(tf);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

StatsSnapshot Runtime::stats_snapshot() const {
  StatsSnapshot s;
  for (const auto& w : workers_) s += w->stats;
  return s;
}

void Runtime::reset_time_stats() {
  for (auto& w : workers_) w->stats.reset_times();
}

void Runtime::trace_event(obs::EventKind k, std::uint16_t level,
                          std::uint32_t arg) noexcept {
  if (Worker* w = this_worker(); w != nullptr) {
    ICILK_TRACE_RECORD(w->trace, k, level, arg);
  }
}

}  // namespace icilk
