// Shared vocabulary types for the I-Cilk runtime core.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "concurrent/smallfn.hpp"

namespace icilk {

/// Priority level of a task: 0..63, HIGHER value = MORE urgent. This
/// matches the paper's bitfield encoding, where the highest set bit (found
/// with count-leading-zeros) is the most urgent level with work.
using Priority = int;

inline constexpr Priority kMaxPriority = 63;
inline constexpr Priority kDefaultPriority = 0;

/// A unit of user work.
using Closure = std::function<void()>;

/// The publish callback a parking fiber leaves in Worker::post_switch.
/// Inline-only storage: parking happens once per suspension (every armed
/// I/O op), so this must never allocate. 64 bytes covers the largest
/// capture set (spawn's parked continuation: this + fiber + Closure + Ref
/// + priority); anything bigger fails to compile.
using PostSwitchFn = SmallFn<64>;

class Runtime;
class Worker;
class Deque;
class Scheduler;
struct TaskFiber;
class FutureStateBase;

/// Runtime-wide configuration.
struct RuntimeConfig {
  /// Number of compute worker threads.
  int num_workers = 4;
  /// Number of I/O handling threads driving the epoll reactor (the paper
  /// runs Memcached with 4 worker + 4 I/O threads, following [40]).
  int num_io_threads = 2;
  /// Fiber stack size.
  std::size_t stack_size = 256 * 1024;
  /// Number of priority levels the application will use (bounds census
  /// arrays; levels are still addressed 0..63).
  int num_levels = 64;
  /// RNG seed (worker streams derive from it deterministically).
  std::uint64_t seed = 0x5eed;
  /// Runtime priority-inversion detection: the prior work the paper builds
  /// on ([29-32]) uses TYPE SYSTEMS to reject programs where a
  /// higher-priority task can wait for a lower-priority one — the
  /// condition under which no prompt scheduler can bound response times.
  /// C++ has no such type system, so as a debugging aid the runtime can
  /// flag inversions dynamically: a get() whose caller outranks the
  /// future's routine counts (and logs, once) an inversion.
  bool detect_priority_inversions = false;
  /// Park every idle worker in the reactor's epoll instead of sleeping
  /// (core/idle_poller.hpp): the event that carries a request then wakes
  /// the worker that will execute it — no I/O-thread hop, no futex relay —
  /// matching the per-request wake count of a classic thread-per-epoll
  /// server. The dedicated I/O threads stand by while any worker is parked
  /// and take over whenever all workers are busy. Scheduler-dependent
  /// (Prompt and MultiQueue use it; Adaptive's quantum poll does not).
  bool worker_io_polling = true;
  /// Record scheduler events into the per-worker trace rings from startup
  /// (src/obs/trace.hpp). Can also be toggled at runtime via
  /// Runtime::trace_sink().set_enabled(); no-op when built ICILK_OBS=OFF.
  bool trace_events = false;
  /// Capacity (events, rounded up to a power of two) of each trace ring.
  std::size_t trace_ring_capacity = std::size_t{1} << 15;
  /// Run the watchdog/flight recorder (src/obs/watchdog.hpp) on the obs
  /// sampler thread: periodic scheduler-state snapshots, invariant
  /// detectors, and post-mortem bundle dumps. No-op when built
  /// ICILK_OBS=OFF.
  bool watchdog_enabled = false;
  /// Watchdog sampling period; also the sampler's tick while it is on.
  int watchdog_period_ms = 10;
  /// Directory flight-recorder bundles are written into.
  std::string watchdog_bundle_dir = ".";
  /// Install a process-wide SIGUSR2 handler so `kill -USR2 <pid>` dumps a
  /// flight bundle on demand. Only takes effect with watchdog_enabled.
  bool watchdog_sigusr2 = true;

  /// Default SIGPROF sample rate for profiler windows opened without an
  /// explicit rate (src/obs/profiler.hpp). The profiler itself is always
  /// constructed when built ICILK_OBS=ON but its per-thread timers
  /// stay disarmed until a window opens (/profile, `stats icilk profile`,
  /// or bench --profile-out), so this costs nothing at rest.
  int profiler_hz = 99;

  /// Keep the windowed time-series ring (src/obs/timeseries.hpp): the obs
  /// sampler closes an epoch every timeseries_epoch_ms, digesting
  /// per-priority request latency + scheduler counter deltas into a ring
  /// of timeseries_epochs windows (`/timeseries`, `stats icilk
  /// timeseries`, flight bundles). With the watchdog on, the sampler
  /// ticks at watchdog_period_ms and an epoch closes on the first sample
  /// at or after its deadline; each epoch's duration_ns records the real
  /// width. Off by default; servers opt in.
  bool timeseries_enabled = false;
  int timeseries_epoch_ms = 1000;
  int timeseries_epochs = 120;

  /// Arm the work/span parallelism profiler (src/obs/spanprof.hpp): the
  /// per-dispatch strand clock and the structural-event merge algebra that
  /// feed per-priority work/span/parallelism telemetry (`/parallelism`,
  /// `stats icilk parallelism`, flight bundles, the timeseries ring).
  /// Runtime kill switch only — ICILK_OBS=OFF removes the hooks from
  /// the build entirely.
  bool spanprof_enabled = true;
  /// Strand-clock selection for the profiler. false (default): invariant
  /// TSC wall ns, ~7ns per read — cheap enough to leave on, but a strand
  /// preempted mid-run is charged its preemption time, so work reads high
  /// when workers are oversubscribed. true: CLOCK_THREAD_CPUTIME_ID, a
  /// ~200ns syscall per read — preemption-immune, for oversubscribed
  /// hosts and the closed-form validation tests (tests/obs/test_spanprof).
  bool spanprof_precise = false;
};

}  // namespace icilk
