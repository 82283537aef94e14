// IdleWakeEngine: the sleep/wake half of a bitfield-style scheduler,
// extracted from PromptScheduler so any policy with a "nothing visible
// anywhere" idle state (Prompt, MultiQueue) shares one implementation of:
//
//   * the eventcount sleep (prepare/re-check/commit — see
//     concurrent/eventcount.hpp for why a wake cannot be lost);
//   * wake-one-per-published-unit with the no-sleeper fast path, falling
//     back to kicking a worker parked in the reactor's epoll;
//   * publish-batch windows (one coalesced wake per reactor drain,
//     thread-local, keyed to this engine so co-resident runtimes in one
//     process cannot swallow each other's wakes);
//   * idle-poller parking (with a reactor registered, every idle worker
//     parks in its epoll instead of sleeping, dropping the I/O-thread
//     relay from the critical path; the eventcount is for runtimes with
//     no reactor).
//
// The predicate is the policy's: sleep paths take a `sleep_ok` callable
// that must return false as soon as work is visible or stop is requested
// (typically `bits.load() == 0 && !host->stop_requested()`).
#pragma once

#include <atomic>
#include <cstdint>

#include "concurrent/eventcount.hpp"
#include "core/idle_poller.hpp"
#include "core/runtime.hpp"
#include "core/worker.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace icilk::policy {

class IdleWakeEngine {
 public:
  void attach(Runtime* rt) noexcept { rt_ = rt; }

  /// Workers currently parked on (or committing to) the idle eventcount.
  int sleepers() const noexcept { return ec_.waiters(); }
  /// Cumulative futex wakes actually issued (the rate the sleep/wake-storm
  /// detector watches). Coalescing and the eventcount's no-waiter fast
  /// path both show up here as wakes that never happen.
  std::uint64_t wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }

  /// Wake one idle worker for one published unit of work: deferred and
  /// coalesced when the calling thread is inside this engine's
  /// publish-batch window, immediate otherwise.
  void wake_one();
  /// The immediate half: eventcount sleeper first, else kick a worker
  /// parked in the reactor's epoll (core/idle_poller.hpp), if one exists
  /// besides the `self_parked` the caller counts for itself.
  void notify_or_kick(int self_parked = 0);
  /// Shutdown: wake every sleeper and every parked poller so acquire
  /// loops observe the stop flag promptly.
  void stop_wake();

  void publish_batch_begin();
  void publish_batch_end();

  /// Park until woken: in the reactor's epoll when one is registered,
  /// else on the eventcount. `sleep_ok()` must re-check the policy's
  /// work-visibility predicate AND the stop flag.
  template <typename SleepOk>
  void idle_sleep(Worker& w, SleepOk&& sleep_ok) {
    if (rt_->config().worker_io_polling && try_poll_io(w, sleep_ok)) return;

    // Eventcount protocol: announce, re-check, commit. A wake landing
    // anywhere in the announce->commit window bumps the epoch past `key`,
    // so commit_wait returns immediately — the wake cannot be lost and
    // the sleep needs no recovery timeout.
    const std::uint32_t key = ec_.prepare_wait();
    if (!sleep_ok()) {
      ec_.cancel_wait();
      return;
    }
    w.stats.sleeps++;
    ICILK_TRACE_RECORD(w.trace, obs::EventKind::kSleepBegin,
                       obs::TraceEvent::kNoLevel16, 0);
    obs::wd_publish_state(w.wd_state, obs::WdWorkerState::kSleeping,
                          static_cast<int>(w.level));
    obs::prof_enter_bucket(obs::ProfBucket::kSleep,
                           static_cast<int>(w.level));
    ec_.commit_wait(key);
    obs::wd_publish_state(w.wd_state, obs::WdWorkerState::kStealing,
                          static_cast<int>(w.level));
    obs::prof_enter_bucket(obs::ProfBucket::kSteal,
                           static_cast<int>(w.level));
    ICILK_TRACE_RECORD(w.trace, obs::EventKind::kSleepEnd,
                       obs::TraceEvent::kNoLevel16, 0);
  }

  /// Idle-poller path of idle_sleep: park in the reactor's epoll until
  /// work appears. False if no reactor is registered or it is stopping
  /// (the caller sleeps on the eventcount instead).
  template <typename SleepOk>
  bool try_poll_io(Worker& w, SleepOk&& sleep_ok) {
    IdleIoPoller* poller = rt_->idle_poller_acquire();
    if (poller == nullptr) return false;  // no reactor registered (or gone)
    if (!poller->try_adopt()) {  // reactor stopping
      rt_->idle_poller_release();
      return false;
    }
    // Predicate re-check AFTER joining the count: a publisher that saw the
    // count at zero ordered its publish before our join, so we see its
    // work here; one that saw it non-zero kicks, and the kick waits in the
    // epoll's ready list. Either way nothing is lost.
    if (sleep_ok()) {
      // arg 1 distinguishes an epoll-parked idle from an eventcount sleep.
      ICILK_TRACE_RECORD(w.trace, obs::EventKind::kSleepBegin,
                         obs::TraceEvent::kNoLevel16, 1);
      obs::wd_publish_state(w.wd_state, obs::WdWorkerState::kSleeping,
                            static_cast<int>(w.level));
      // Stay parked across empty rounds (timer fires, stale kicks): leave
      // only once there is work to run or the reactor stops.
      while (sleep_ok()) {
        if (!poller->poll_adopted()) break;
      }
      obs::wd_publish_state(w.wd_state, obs::WdWorkerState::kStealing,
                            static_cast<int>(w.level));
      obs::prof_enter_bucket(obs::ProfBucket::kSteal,
                             static_cast<int>(w.level));
      ICILK_TRACE_RECORD(w.trace, obs::EventKind::kSleepEnd,
                         obs::TraceEvent::kNoLevel16, 1);
    }
    poller->release_adopted();
    // One stop kick reaches one parked worker; each worker that leaves on
    // stop passes it to the next, so every one of them sees the flag.
    if (stopping_.load(std::memory_order_seq_cst)) poller->kick();
    rt_->idle_poller_release();
    return true;  // caller's acquire loop re-checks its predicate
  }

 private:
  Runtime* rt_ = nullptr;
  EventCount ec_;
  std::atomic<std::uint64_t> wakeups_{0};  // futex wakes issued
  std::atomic<bool> stopping_{false};      // set by stop_wake
};

}  // namespace icilk::policy
