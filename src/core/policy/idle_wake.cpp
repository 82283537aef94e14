#include "core/policy/idle_wake.hpp"

#include <cassert>

namespace icilk::policy {

namespace {

/// One publish-batch window per thread (the reactor brackets each epoll
/// drain). `owner` scopes the window to one engine instance — an I/O
/// thread belongs to exactly one runtime, but tests run several runtimes
/// in one process and a worker of runtime A must not have its wakes
/// swallowed by a window opened for runtime B on some other scheduler.
/// `pending` counts deferred wakes so the flush can net out the unit of
/// work a WORKER-context drainer (adopted poller) will take itself.
struct TlsPublishBatch {
  const void* owner = nullptr;
  int pending = 0;
};
thread_local TlsPublishBatch tls_pub_batch;

}  // namespace

void IdleWakeEngine::wake_one() {
  // Wake one sleeper per unit of arriving work (wake rate tracks push
  // rate): waking everyone on each 0 -> non-zero transition — the obvious
  // reading of the paper's broadcast — thrashes when worker threads
  // outnumber cores, which is this reproduction's hardware reality. The
  // eventcount keeps this path lock-free AND exact: no syscall when
  // nobody sleeps, no lost wake when someone is committing to sleep
  // (the caller's seq_cst publish happens-before notify_one's waiter
  // check).
  if (tls_pub_batch.owner == this) {
    // Inside this thread's reactor-drain window: defer; publish_batch_end
    // issues one coalesced wake for the whole drain.
    tls_pub_batch.pending++;
    return;
  }
  notify_or_kick();
}

void IdleWakeEngine::notify_or_kick(int self_parked) {
  if (ec_.notify_one()) {
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // No eventcount sleeper — but workers may be parked inside the
  // reactor's epoll (core/idle_poller.hpp). The count is a cheap seq_cst
  // load; the kick itself is an eventfd write that waits in the epoll's
  // ready list until a poller takes it, so it cannot be lost. Ordering vs
  // a worker mid-adoption: the caller's seq_cst publish precedes this
  // load; if the count misses the worker, its join is later still, and
  // its post-join predicate re-check is later again — it sees the
  // published work and leaves the epoll.
  if (rt_ != nullptr && rt_->worker_pollers() > self_parked) {
    rt_->idle_poller_kick();
  }
}

void IdleWakeEngine::stop_wake() {
  stopping_.store(true, std::memory_order_seq_cst);
  ec_.notify_all();
  // Workers may be parked inside the reactor's epoll rather than on the
  // eventcount; kick one, and each one that leaves kicks the next
  // (try_poll_io), so every acquire loop sees the stop flag.
  if (rt_ != nullptr) rt_->idle_poller_kick();
}

void IdleWakeEngine::publish_batch_begin() {
  assert(tls_pub_batch.owner == nullptr && "publish-batch windows nest");
  tls_pub_batch.owner = this;
  tls_pub_batch.pending = 0;
}

void IdleWakeEngine::publish_batch_end() {
  assert(tls_pub_batch.owner == this && "unbalanced publish-batch window");
  tls_pub_batch.owner = nullptr;
  const int pending = tls_pub_batch.pending;
  tls_pub_batch.pending = 0;
  if (pending == 0) return;
  // All batched publishes are already visible (seq_cst at each one), so a
  // woken worker sees every level published during the drain. Waking
  // exactly one avoids the herd; if more work than one worker can take
  // was published, the wake chain in the policies' probe success path
  // fans out.
  if (this_worker() != nullptr) {
    // The drainer is a PARKED WORKER (idle poller): it returns to its
    // acquire loop right after this flush and takes one published unit
    // itself, so a single completion needs no wake at all — the common
    // low-load case costs zero futex/eventfd traffic. Surplus (a burst)
    // wakes one peer — an eventcount sleeper, else another parked worker
    // — and the acquire-side wake chain fans out from there. Requests
    // that arrive while every worker chews the burst are read by a
    // standing-by I/O thread within its re-check period.
    if (pending > 1) notify_or_kick(/*self_parked=*/1);
    return;
  }
  notify_or_kick();
}

}  // namespace icilk::policy
