// Fiber-aware on-CPU/off-CPU sampling profiler.
//
// reqtrace (PR 4) answers "which PHASE ate this request's latency"; this
// module answers "which CODE" — the missing half of the p99 burn-down.
// Design:
//
//   * One POSIX timer per registered thread (timer_create with
//     CLOCK_THREAD_CPUTIME_ID + SIGEV_THREAD_ID), so SIGPROF fires on a
//     thread only in proportion to CPU it actually burns: the profiler is
//     on-CPU-only by construction, idle workers cost nothing.
//   * The handler captures a backtrace() plus a packed ATTRIBUTION WORD
//     from the per-thread context (obs/thread_ctx.hpp) into a per-thread
//     single-writer ring (drop-and-count when full — overload never
//     blocks the handler). The dispatch bracket around switch_context
//     stamps task+priority before switching into a fiber and a scheduler
//     bucket after it switches back, so a sample landing mid-fiber
//     attributes to the task even though the stack walk bottoms out at the
//     fiber's InitialFrame (terminator = nullptr, thunk zeroes %rbp).
//   * Scheduler-overhead buckets (steal, sleep/wake, pre_op_check,
//     reactor wait/drain) come from one relaxed store at each transition
//     — the only hot-path cost, and it compiles out entirely.
//   * Off-CPU time is NOT sampled (SIGPROF cannot fire on a parked
//     fiber); it is synthesized from the reqtrace per-level phase
//     accumulators (queueing / runnable / suspended_io / suspended_sync
//     deltas over the window) and merged into the same folded output,
//     weighted in nanoseconds exactly like the on-CPU samples
//     (period_ns each). One flamegraph shows both halves of the tail.
//   * The hot path never symbolizes: exports carry raw PCs plus the
//     /proc/self/maps module table; scripts/flamegraph.py resolves them
//     offline with addr2line.
//
// Signal interplay policy (see DESIGN.md "Sample attribution"):
//   * SIGPROF's sa_mask blocks SIGUSR2 so the watchdog's dump trigger is
//     deferred — never nested inside a backtrace — while the profiler
//     handler runs; the reverse nesting (SIGPROF interrupting the
//     SIGUSR2 counter bump) is a single relaxed atomic add and safe.
//   * SA_RESTART is set, but epoll_wait is never restarted by the kernel,
//     so profiled I/O threads see real EINTR storms; the reactor's
//     existing retry edges (epoll loop + do_syscall) absorb them, and
//     tests/obs/test_profiler_signals.cpp regression-tests EINTR under
//     profiling with injected faults layered on top.
//
// Cost model (mirrors trace/inject/reqtrace/watchdog):
//   * ICILK_PROFILE=OFF (-DICILK_PROFILE_ENABLED=0): every hook below
//     inlines to nothing; no hot-path object references a profiler symbol
//     (scripts/soak.sh profoff proves it, plus probe==baseline in
//     bench/micro_profiler). The Profiler class itself stays compiled
//     (endpoints and tests reference it) but the runtime never
//     instantiates one.
//   * Compiled in but idle (no window open): hooks are one relaxed
//     store per scheduler transition; timers exist but are disarmed.
//   * Window open: ~hz signals/second of CPU time per busy thread, each
//     one backtrace (a few microseconds). 99Hz costs <2% of fig1 p99
//     (gated by scripts/bench_diff.py against the baseline file).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#if !defined(ICILK_PROFILE_ENABLED)
#define ICILK_PROFILE_ENABLED 1
#endif

namespace icilk::obs {

class MetricsRegistry;

/// True when the profiler hooks were compiled in.
constexpr bool profile_compiled_in() noexcept {
  return ICILK_PROFILE_ENABLED != 0;
}

// ---------------------------------------------------------------------------
// Attribution word
// ---------------------------------------------------------------------------

/// What the sampled thread was doing. kTask means "inside a task fiber at
/// the word's priority level"; everything else is scheduler/reactor
/// overhead by definition (the folded output groups them under "sched"
/// and "reactor" roots).
enum class ProfBucket : std::uint8_t {
  kNone = 0,      ///< unregistered thread / no context published yet
  kTask,          ///< running task code (level = fiber's priority)
  kSchedLoop,     ///< dispatch loop between acquire and the next switch
  kSteal,         ///< acquire: probing pools / bitfield
  kSleep,         ///< parked on (or waking from) the idle condvar
  kPreOpCheck,    ///< promptness check (runs ON the task fiber)
  kReactorWait,   ///< I/O thread blocked in epoll_wait
  kReactorDrain,  ///< I/O thread servicing completions / timers
  kCount          ///< sentinel; not a real bucket
};
inline constexpr int kProfBucketCount = static_cast<int>(ProfBucket::kCount);

/// Stable lowercase name for export ("task", "steal", ...).
const char* prof_bucket_name(ProfBucket b) noexcept;

/// Packs (bucket, level, tag) into the attribution word. `tag` is
/// free-form per-bucket detail (kTask: low 16 bits of the request id).
constexpr std::uint32_t prof_pack(ProfBucket b, int level,
                                  std::uint16_t tag = 0) noexcept {
  return static_cast<std::uint32_t>(b) |
         (static_cast<std::uint32_t>(level & 0xff) << 8) |
         (static_cast<std::uint32_t>(tag) << 16);
}
constexpr ProfBucket prof_bucket_of(std::uint32_t w) noexcept {
  return static_cast<ProfBucket>(w & 0xff);
}
constexpr int prof_level_of(std::uint32_t w) noexcept {
  return static_cast<int>((w >> 8) & 0xff);
}
constexpr std::uint16_t prof_tag_of(std::uint32_t w) noexcept {
  return static_cast<std::uint16_t>(w >> 16);
}

/// Which kind of thread registered (folded-output root frame).
enum class ProfThreadKind : std::uint8_t { kWorker = 0, kIo, kOther };
const char* prof_thread_kind_name(ProfThreadKind k) noexcept;

// ---------------------------------------------------------------------------
// The profiler (always compiled; the compile-out contract covers only the
// hot-path hooks below — endpoints and tests drive this class directly).
// ---------------------------------------------------------------------------

/// One captured stack, raw PCs leaf-first (frames[0] = interrupted PC).
struct ProfSample {
  static constexpr int kMaxFrames = 32;
  std::uint32_t ctx = 0;      ///< attribution word at capture time
  std::uint16_t nframes = 0;  ///< valid entries in frames
  std::uint8_t kind = 0;      ///< ProfThreadKind of the sampled thread
  std::uint8_t truncated = 0; ///< stack deeper than kMaxFrames
  std::uintptr_t frames[kMaxFrames] = {};
};

/// The merged result of one profile window: folded stacks (on-CPU from
/// samples, off-CPU synthesized from reqtrace phase deltas), all weighted
/// in nanoseconds, plus the module table offline symbolization needs.
struct ProfileReport {
  struct Stack {
    std::string key;           ///< folded frames, root-first, ';'-joined
    std::uint64_t weight_ns = 0;
    std::uint64_t count = 0;   ///< raw samples (0 for synthesized rows)
  };
  struct Module {
    std::uintptr_t base = 0;   ///< lowest runtime mapping of the file
    std::uintptr_t end = 0;
    std::string path;
  };
  int hz = 0;
  std::uint64_t period_ns = 0;
  std::uint64_t window_ns = 0;
  std::uint64_t samples = 0;   ///< captured (post-drop)
  std::uint64_t dropped = 0;   ///< lost to full rings
  std::uint64_t offcpu_ns = 0; ///< total synthesized off-CPU weight
  std::vector<Stack> stacks;
  std::vector<Module> modules;
  std::string exe;
};

/// Opaque per-registered-thread state (timer id, sample ring, handler
/// quiesce counter); defined in profiler.cpp — the signal handler and the
/// registry both touch it, so it lives at namespace scope.
struct ProfThreadEntry;

class Profiler {
 public:
  struct Config {
    /// Timer rate for windows opened without an explicit rate. 99 is the
    /// classic anti-aliasing default (not a divisor of common tick
    /// frequencies).
    int default_hz = 99;
    /// Per-thread sample-ring capacity. A full ring drops (and counts)
    /// new samples rather than blocking or overwriting.
    int ring_slots = 8192;
    /// Off-CPU phase source (reqtrace per-level accumulators); may be
    /// null — the report then carries on-CPU rows only.
    MetricsRegistry* metrics = nullptr;
    /// Levels to scan for off-CPU deltas (<= MetricsRegistry::kMaxLevels).
    int num_levels = 0;
  };

  explicit Profiler(Config cfg);
  ~Profiler();  // disarms timers; threads must already be unregistered
                // (the runtime tears workers down first) or are detached
                // here defensively.

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Opens a sampling window at `hz` (0 = config default). Installs the
  /// SIGPROF handler (once, process-wide), allocates rings, arms every
  /// registered thread's timer. Returns false if a window is already
  /// open (windows are exclusive — /profile, `stats icilk profile` and
  /// --profile-out contend via this).
  bool start(int hz = 0);

  /// Closes the window: disarms timers, quiesces handlers, drains rings,
  /// folds stacks, synthesizes off-CPU rows from the phase deltas since
  /// start(). Returns the merged report (empty if no window was open).
  ProfileReport stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  int hz() const noexcept { return hz_.load(std::memory_order_relaxed); }

  /// Captures one sample synchronously on the CALLING thread through the
  /// same path the signal handler uses (tests drive attribution
  /// deterministically with this; requires an open window and a
  /// registered thread; returns false otherwise).
  bool sample_now() noexcept;

  /// Registers/unregisters the CALLING thread (creates/deletes its timer;
  /// must be called on the thread itself). Normally reached through the
  /// prof_register_thread hook so call sites compile out.
  void register_current_thread(ProfThreadKind kind, int idx) noexcept;
  void unregister_current_thread() noexcept;
  int registered_threads() const noexcept;

  // ---- cumulative counters (across windows; the health surfaces) ----
  std::uint64_t total_samples() const noexcept {
    return total_samples_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_dropped() const noexcept {
    return total_dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t windows() const noexcept {
    return windows_.load(std::memory_order_relaxed);
  }

  const Config& config() const noexcept { return cfg_; }

  // ---- rendering ----

  /// flamegraph.pl-compatible collapsed stacks ("frame;frame weight"),
  /// prefixed with '#' header lines (exe, hz, window, module table) that
  /// scripts/flamegraph.py consumes for offline symbolization.
  static std::string folded_text(const ProfileReport& r);
  /// The same data as JSON (the /profile?format=json body).
  static std::string json_text(const ProfileReport& r);
  /// Writes folded_text to `path`; returns success.
  static bool write_folded(const ProfileReport& r, const std::string& path);

 private:
  Config cfg_;
  std::atomic<bool> running_{false};
  std::atomic<int> hz_{0};
  std::uint64_t window_start_ns_ = 0;
  std::vector<std::uint64_t> phase_base_;  // level-major phase snapshot
  std::atomic<std::uint64_t> total_samples_{0};
  std::atomic<std::uint64_t> total_dropped_{0};
  std::atomic<std::uint64_t> windows_{0};

  // Registry of per-thread state; mutex-guarded (registration and window
  // open/close are cold). Entries persist until the profiler dies so a
  // racing late signal never chases freed memory.
  mutable std::mutex reg_mu_;
  std::vector<ProfThreadEntry*> threads_;
};

/// Health fragments for the shared /health endpoint and `stats icilk
/// health`. Both accept null (not compiled in / not constructed).
std::string prof_health_json(const Profiler* p);
std::string prof_health_stats_text(const Profiler* p,
                                   const std::string& prefix,
                                   const std::string& eol);

// Hot-path hooks (schedulers, reactor): one relaxed store per transition
// into the per-thread context (obs/thread_ctx.hpp), whose dispatch bracket
// publishes the task word. Nothing when compiled out.

#if ICILK_PROFILE_ENABLED

/// The calling thread's attribution word (the handler reads it; tests
/// assert on it).
std::uint32_t prof_context() noexcept;

/// Scheduler/reactor overhead transition.
void prof_enter_bucket(ProfBucket b, int level = 0) noexcept;

/// Thread registration (obs::ThreadScope). Null `p` (profiler disabled at
/// runtime) is a no-op.
void prof_register_thread(Profiler* p, ProfThreadKind kind, int idx) noexcept;
void prof_unregister_thread(Profiler* p) noexcept;

/// Save/restore scope for overhead that runs ON a task fiber
/// (pre_op_check): publishes `b` for the duration, then restores the
/// task's word — correct even if the check abandons and the fiber resumes
/// on a different worker, because the restored word describes the task,
/// not the thread.
#else  // !ICILK_PROFILE_ENABLED

inline std::uint32_t prof_context() noexcept { return 0; }
inline void prof_enter_bucket(ProfBucket, int = 0) noexcept {}
inline void prof_register_thread(Profiler*, ProfThreadKind, int) noexcept {}
inline void prof_unregister_thread(Profiler*) noexcept {}

#endif  // ICILK_PROFILE_ENABLED

class ProfScope {
 public:
#if ICILK_PROFILE_ENABLED
  ProfScope(ProfBucket b, int level) noexcept;
  ~ProfScope();
#else
  ProfScope(ProfBucket, int) noexcept {}
#endif
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::uint32_t saved_ = 0;
};

}  // namespace icilk::obs
