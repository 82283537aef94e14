// The I/O reactor behind I-Cilk's I/O futures.
//
// The paper (Sections 1-2, following [40]) gives tasks a SYNCHRONOUS I/O
// interface with asynchronous-I/O performance: a task calls read() and just
// gets the bytes — but under the hood a blocked operation suspends the
// task's deque (the worker goes off to run other work) and dedicated I/O
// handling threads drive epoll; when the operation completes, the future
// completes, the deque becomes resumable, and the scheduler re-pools it.
// The paper's Memcached configuration uses 4 worker + 4 I/O threads.
//
// Operation model: one-shot operations (read-some / write-some / accept /
// connect / sleep). Each op first tries the nonblocking syscall inline
// (the common "data already there" fast path completes without suspension);
// on EAGAIN it arms the fd in epoll (EPOLLONESHOT; per-fd slots for one
// pending read and one pending write). Results are C-style: >= 0 on
// success, -errno on failure.
//
// Fast-path structure (see DESIGN.md "I/O fast path"):
//   * pending ops live in a preallocated fd-indexed slot table
//     (io/fd_table.hpp) — per-slot spinlock, no global lock, generation
//     counters against fd-number reuse;
//   * Op structs come from a per-thread recycling pool and future states
//     from the size-class pool (concurrent/objpool.hpp), so steady-state
//     operations allocate nothing;
//   * sleep timers are sharded per I/O thread (hashed by submitter), each
//     shard driven by its own timerfd inside the shared epoll — arming a
//     timer takes one shard spinlock and never wakes the other threads.
//
// Composite helpers (read_exact / write_all) and synchronous task-facing
// wrappers live on top of the one-shot futures.
#pragma once

#include <sys/types.h>
#include <sys/uio.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "concurrent/eventcount.hpp"
#include "concurrent/objpool.hpp"
#include "concurrent/spinlock.hpp"
#include "core/future.hpp"
#include "core/idle_poller.hpp"
#include "core/runtime.hpp"
#include "io/fd_table.hpp"

namespace icilk {

class IoReactor final : public IdleIoPoller {
 public:
  /// Spawns `num_threads` I/O handling threads over one epoll instance
  /// (defaults to the runtime config's num_io_threads).
  explicit IoReactor(Runtime& rt, int num_threads = -1);
  ~IoReactor() override;

  IoReactor(const IoReactor&) = delete;
  IoReactor& operator=(const IoReactor&) = delete;

  Runtime& runtime() noexcept { return rt_; }

  // ---- one-shot asynchronous operations (futures) ----

  /// Reads up to `len` bytes once the fd is readable. Resolves to the byte
  /// count (0 = EOF) or -errno. fd must be nonblocking. When `done_ns` is
  /// non-null it receives now_ns() taken as the read syscall returned
  /// (inline or on the poller thread), visible once the future resolves.
  Future<ssize_t> async_read(int fd, void* buf, std::size_t len,
                             std::uint64_t* done_ns = nullptr);

  /// Writes up to `len` bytes once the fd is writable.
  Future<ssize_t> async_write(int fd, const void* buf, std::size_t len);

  /// Vectored write: writes from `iov[0..iovcnt)` once the fd is writable
  /// (one-shot, like async_write — a single ::writev attempt). The iov
  /// array AND the buffers it points at must stay alive until the future
  /// resolves. iovcnt must be <= IOV_MAX.
  Future<ssize_t> async_writev(int fd, const struct iovec* iov, int iovcnt);

  /// Accepts one connection; resolves to a nonblocking connected fd or
  /// -errno. `listen_fd` must be nonblocking.
  Future<ssize_t> async_accept(int listen_fd);

  /// Resolves (to 0) after `d` elapses.
  Future<void> async_sleep(std::chrono::nanoseconds d);

  // ---- fd lifecycle ----

  /// Completes any pending ops on `fd` with -ECANCELED, forgets its epoll
  /// registration, and bumps the slot generation so in-flight events for
  /// the old fd are dropped. Call before ::close on any fd that may still
  /// have armed operations; without it a reused fd number could inherit a
  /// stale pending op (asserts in debug builds).
  void cancel_fd(int fd);

  /// cancel_fd + ::close. Returns ::close's result (0 or -1/errno).
  int close_fd(int fd);

  // ---- synchronous task-facing wrappers (block the TASK, not the worker) -

  ssize_t read_some(int fd, void* buf, std::size_t len,
                    std::uint64_t* done_ns = nullptr) {
    return async_read(fd, buf, len, done_ns).get();
  }
  ssize_t write_some(int fd, const void* buf, std::size_t len) {
    return async_write(fd, buf, len).get();
  }
  /// Reads exactly `len` bytes; returns len, 0 on clean EOF at offset 0,
  /// or -errno (including -ECONNRESET style short reads as -EPIPE).
  ssize_t read_exact(int fd, void* buf, std::size_t len);
  /// Writes all `len` bytes; returns len or -errno.
  ssize_t write_all(int fd, const void* buf, std::size_t len);
  /// Writes EVERY byte described by `iov[0..iovcnt)` (chunking past
  /// IOV_MAX as needed); returns the total byte count or -errno. MUTATES
  /// the iov array in place to step over partially-written entries —
  /// callers pass a scratch copy they rebuild per response.
  ssize_t writev_all(int fd, struct iovec* iov, int iovcnt);
  ssize_t accept(int listen_fd) { return async_accept(listen_fd).get(); }
  void sleep_for(std::chrono::nanoseconds d) { async_sleep(d).get(); }

  // introspection
  std::uint64_t ops_submitted_for_test() const {
    return ops_submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_inline_for_test() const {
    return ops_inline_.load(std::memory_order_relaxed);
  }
  std::size_t fd_table_size_for_test() const { return table_.size(); }
  /// Live per-shard timer heap depths (gauges for `stats icilk`).
  std::vector<std::size_t> timer_shard_depths() const;

  /// Process-wide recycling pool counters (Op structs / future states).
  static PoolCountersSnapshot op_pool_stats();
  static PoolCountersSnapshot future_pool_stats() {
    return sized_pool_stats();
  }

  // ---- IdleIoPoller (core/idle_poller.hpp) ----
  //
  // Registered with the runtime (when cfg.worker_io_polling) so idle
  // workers park in this epoll instead of sleeping: the readiness event
  // that carries a request then wakes the worker that will execute it —
  // no I/O-thread relay hop. While any worker is parked the dedicated I/O
  // threads stand by on `standby_ec_`; once none is, they poll again
  // within kStandbyRecheckNs (so the all-workers-busy regime still has a
  // reader).
  bool try_adopt() override;
  bool poll_adopted() override;
  void release_adopted() override;
  void kick() override;

  /// Times a worker parked in this epoll (gauge for `stats icilk`).
  std::uint64_t worker_polls_for_test() const {
    return worker_polls_.load(std::memory_order_relaxed);
  }

 private:
  /// Writev rides the write-direction slot and epoll interest; its Op
  /// carries the iovec array via (cbuf = iov base, len = iovcnt).
  enum class OpKind { Read, Write, Writev, Accept };

  struct Op {
    Op(OpKind k, int f, void* b, const void* cb, std::size_t l,
       Ref<FutureState<ssize_t>> fu)
        : kind(k), fd(f), buf(b), cbuf(cb), len(l), fut(std::move(fu)) {}
    OpKind kind;
    int fd;
    void* buf = nullptr;
    const void* cbuf = nullptr;
    std::size_t len = 0;
    Ref<FutureState<ssize_t>> fut;
    /// Request the submitting task was serving (obs/reqtrace.hpp), 0 if
    /// none — carried to the I/O thread so the completion record is
    /// attributable to the request.
    std::uint64_t req_id = 0;
    /// Where to stamp the syscall's return time (async_read), or null.
    std::uint64_t* done_ns = nullptr;
  };

  using Table = FdTable<Op>;
  using Slot = Table::Slot;
  using OpPool = ObjectPool<Op>;

  struct Timer {
    std::uint64_t deadline_ns;
    Ref<FutureState<void>> fut;
    bool operator>(const Timer& o) const {
      return deadline_ns > o.deadline_ns;
    }
  };

  /// One timer heap per I/O thread, driven by its own timerfd in the
  /// shared epoll. Submitters hash onto a shard by thread ordinal.
  struct TimerShard {
    SpinLock mu;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> heap;
    int tfd = -1;
    std::uint64_t armed_deadline_ns = 0;  // 0 = disarmed; guarded by mu
    std::atomic<std::size_t> depth{0};    // gauge mirror of heap.size()
  };

  /// Runs the syscall for (kind, fd, ...), retrying EINTR inline. Returns
  /// the result (>= 0), -errno on hard failure, or -EAGAIN if it would
  /// block (EWOULDBLOCK is normalized to EAGAIN).
  static ssize_t do_syscall(OpKind kind, int fd, void* buf, const void* cbuf,
                            std::size_t len);

  Future<ssize_t> submit(OpKind kind, int fd, void* buf, const void* cbuf,
                         std::size_t len, std::uint64_t* done_ns = nullptr);
  /// Parks the op in its fd slot and (re)arms epoll interest.
  void arm(Op* op);
  void update_interest(int fd, Slot& s);  // caller holds s.mu
  void io_thread_main(int thread_idx);
  /// One epoll_wait + drain round (shared by I/O threads and the adopted
  /// worker). Returns false when the reactor is stopping (hard epoll error
  /// or the stop wake); EINTR counts as a (empty) successful round.
  bool poll_once(obs::TraceRing* ring, bool for_worker);
  /// Arms the demand edge of epoll coverage: if neither a parked worker
  /// nor any I/O thread is currently polling (everyone stood by), resume
  /// one I/O thread. Called after making new epoll interest visible from
  /// a non-worker thread or a timer; best-effort — the timed standby
  /// bounds a lost race.
  void ensure_covered();
  void handle_event(int fd, std::uint32_t gen, std::uint32_t events,
                    obs::TraceRing* ring);
  void handle_timer(std::size_t shard_idx, obs::TraceRing* ring);
  void arm_timerfd_locked(TimerShard& s);  // caller holds s.mu
  void wake();

  Runtime& rt_;
  int epfd_ = -1;
  int wake_fd_ = -1;
  /// Kick channel for parked workers: a second eventfd in the epoll set
  /// (edge-triggered: one write wakes one waiter). The write waits in the
  /// epoll's ready list across the join→epoll_wait window, so a kick
  /// racing a worker's join is never lost — the property a futex wake
  /// lacks.
  int worker_kick_fd_ = -1;
  std::atomic<bool> stop_{false};
  /// Workers currently parked in this epoll (see IdleIoPoller overrides).
  std::atomic<int> worker_pollers_{0};
  EventCount standby_ec_;  // I/O threads park here while workers poll
  /// I/O threads NOT standing by (initialized to the thread count);
  /// `worker_pollers_ > 0 || polling_ios_ > 0` means the epoll is covered.
  std::atomic<int> polling_ios_{0};
  bool registered_poller_ = false;
  std::atomic<std::uint64_t> worker_polls_{0};
  std::vector<std::thread> threads_;

  Table table_;
  std::vector<std::unique_ptr<TimerShard>> timer_shards_;

  std::atomic<std::uint64_t> ops_submitted_{0};
  std::atomic<std::uint64_t> ops_inline_{0};
};

}  // namespace icilk
