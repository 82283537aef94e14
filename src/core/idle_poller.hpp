// The idle-poller contract between the scheduler and the I/O reactor.
//
// Motivation (measured, fig1 on the 1-core bench host): a request's
// critical path under the classic split is
//
//   epoll wakes I/O thread -> read -> publish -> futex wakes worker -> run
//
// i.e. TWO OS-level wakes per request, where a thread-per-epoll server
// pays one. At low load that second hop dominates the p99. The fix: when
// a worker is about to sleep (nothing in the bitfield), it instead parks
// in the reactor's epoll. The readiness event that carries the next
// request then wakes the very worker that will execute it; it drains
// completions inline, publishes them, and returns to its acquire loop —
// zero relay hops.
//
// Role protocol (a count, not a token): EVERY idle worker parks in the
// shared epoll's epoll_wait. The kernel wakes one exclusive waiter per
// ready fd and EPOLLONESHOT keeps each delivery single, so N parked
// workers are not a herd. The eventcount sleep is left for runtimes with
// no reactor (and a reactor that is being torn down).
//
//   try_adopt()            join the parked workers (count + 1). False only
//                          when the reactor is stopping. After adopting,
//                          the caller MUST re-check its own work predicate
//                          before poll_adopted() — a publisher that missed
//                          the count ordered its publish before the join;
//                          one that saw it kicks, and a kick is an eventfd
//                          write that waits in the epoll's ready list, so
//                          it survives the join→epoll_wait window.
//   poll_adopted()         one blocking poll round: handle events, then
//                          return (the caller re-evaluates its predicate
//                          every round). Returns false when the reactor
//                          is stopping.
//   release_adopted()      leave the epoll (count - 1). No I/O thread is
//                          woken: the releasing worker goes to run work
//                          and at low load parks again right after.
//   kick()                 wake ONE parked worker (no-op when none is
//                          parked). Any thread. One kick is one delivery.
//
// Coverage — who reads an fd that becomes ready while every worker runs
// work. The dedicated I/O threads stand by while any worker is parked
// and poll while none is; I/O thread 0 re-checks the count every 200 µs
// while standing by (the others every 5 ms), so an all-busy runtime has an
// I/O thread in the epoll within that bound. An op armed from a WORKER
// does not wake an I/O thread: that worker is about to suspend and will
// either run work or park in the epoll itself. Ops armed from other
// threads and timers wake a standing-by I/O thread at once when nobody
// polls.
//
// Discovery goes through Runtime::idle_poller_acquire/release (a
// refcounted registry) so the reactor can unregister and quiesce before
// its epoll fd dies regardless of teardown order.
#pragma once

namespace icilk {

class IdleIoPoller {
 public:
  virtual ~IdleIoPoller() = default;

  /// Join the workers parked in the epoll. False only if stopping.
  virtual bool try_adopt() = 0;
  /// One blocking poll round; requires having adopted. False = reactor
  /// stopping.
  virtual bool poll_adopted() = 0;
  /// Leave the epoll; requires having adopted.
  virtual void release_adopted() = 0;
  /// Wake one parked worker, if any. Safe from any thread; must not be
  /// lost even when racing the adopt/poll window.
  virtual void kick() = 0;
};

}  // namespace icilk
