// Fault injection & deterministic stress (the runtime's hostile-kernel and
// adversarial-schedule test harness).
//
// Prompt I-Cilk's correctness story lives in rare interleavings — a deque
// suspending exactly as its future completes, a mug racing an abandon, an
// fd number reused mid-flight. Ordinary tests and benches almost never hit
// those windows. This subsystem makes them hittable on demand:
//
//   * a SYSCALL SHIM wrapping the reactor's do_syscall choke point that
//     injects short reads/writes, EAGAIN, EINTR, ECONNRESET, spurious
//     epoll wakeups, and bounded completion delays;
//   * SCHEDULER CROSSPOINTS — named hooks at the prompt scheduler's
//     decision points (steal, mug, abandon-check, suspend, resumability
//     publication, timer fire) that can force abandonment, delay
//     publication, and insert yields to widen race windows;
//   * a SEEDED DETERMINISTIC ENGINE: every decision is a pure function of
//     (seed, stream, counter) — a per-thread counter-keyed PRNG with no
//     wall-clock input — so any failing run replays from its seed, and
//     injected decisions are recorded into per-stream logs plus the obs
//     trace rings (EventKind::kInject).
//
// Cost model (mirrors obs/trace.hpp):
//   * ICILK_INJECT=OFF (-DICILK_INJECT_ENABLED=0): probe() is a constexpr
//     no-op, so every hook site compiles to NOTHING — do_syscall and the
//     scheduler hot paths are bit-identical to a build without the
//     subsystem (scripts/soak.sh checks this).
//   * Compiled in, no engine installed: one relaxed load + predictable
//     branch per hook.
//   * Engine installed: one splitmix-style hash per decision; action
//     application (spin/yield) only on hits.
//
// The Engine class itself is always compiled (tests exercise the decision
// function in both build modes); only the hot-path hooks compile out.
#pragma once

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#if !defined(ICILK_INJECT_ENABLED)
#define ICILK_INJECT_ENABLED 1
#endif

namespace icilk::inject {

/// Named injection sites. Syscall points shim the reactor's do_syscall;
/// the rest are scheduler/reactor crosspoints.
enum class Point : std::uint8_t {
  kSyscallRead = 0,  ///< reactor read() — short read/EAGAIN/EINTR/reset
  kSyscallWrite,     ///< reactor write() — short write/EAGAIN/EINTR/reset
  kSyscallAccept,    ///< reactor accept4() — EAGAIN/EINTR/delay
  kEpollDispatch,    ///< before servicing a ready fd — spurious wakeup
  kTimerFire,        ///< before completing due sleep futures — delay
  kSteal,            ///< before a thief's steal_top attempt
  kMug,              ///< before a thief's try_mug attempt
  kAbandonCheck,     ///< the bitfield check — can FORCE abandonment
  kSuspend,          ///< before a blocked get/sync parks its deque
  kResumePublish,    ///< before a resumable deque is published to the pool
  kPromptMask,       ///< can FORCE pre_op_check to skip the bitfield check
  kCount             ///< sentinel; not a real point
};
inline constexpr int kPointCount = static_cast<int>(Point::kCount);

/// Stable lowercase name ("syscall_read", "mug", ...).
const char* point_name(Point p) noexcept;

/// What an injection hit does at its point. Not every action is eligible
/// at every point; see the per-point menus in inject.cpp.
enum class Action : std::uint8_t {
  kNone = 0,   ///< no injection (the common case)
  kShortIo,    ///< clamp the syscall length to 1 byte (short read/write)
  kEagain,     ///< report EAGAIN without performing the syscall
  kEintr,      ///< report EINTR (exercises the inline retry loop)
  kConnReset,  ///< fail the operation with ECONNRESET
  kDelay,      ///< bounded deterministic spin (arg = iterations)
  kYield,      ///< sched_yield() to perturb the interleaving
  kForce,      ///< point-specific: take the rare branch (spurious wake,
               ///< forced abandonment)
  kCount       ///< sentinel
};

/// Stable lowercase name ("short_io", "eagain", ...).
const char* action_name(Action a) noexcept;

/// One decision's result. arg carries the spin-iteration count for kDelay.
struct Outcome {
  Action action = Action::kNone;
  std::uint32_t arg = 0;
};

/// Engine configuration. Rates are per-point injection probabilities in
/// parts per million of decisions; 0 disables a point entirely.
struct Config {
  std::uint64_t seed = 1;
  std::uint32_t rate_ppm[kPointCount] = {};
  /// Upper bound (exclusive of +1) on kDelay spin iterations. Spins, not
  /// wall time: decisions and their effects stay wall-clock-free.
  std::uint32_t max_delay_spins = 2000;
  /// Override the action menu at a point: when a point fires and its
  /// override is not kNone, that action is injected instead of a menu
  /// pick. Lets tests target one failure mode deterministically.
  Action force_action[kPointCount] = {};
  /// Keep per-stream logs of injected decisions (replay verification).
  bool record_decisions = true;
  /// Per-stream log cap; hits beyond it are counted but not logged.
  std::size_t max_log_entries = std::size_t{1} << 16;

  void set_rate(Point p, std::uint32_t ppm) noexcept {
    rate_ppm[static_cast<int>(p)] = ppm;
  }
  void set_all_rates(std::uint32_t ppm) noexcept {
    for (auto& r : rate_ppm) r = ppm;
  }
  void set_force(Point p, Action a) noexcept {
    force_action[static_cast<int>(p)] = a;
  }

  /// Overlays ICILK_INJECT_SEED / ICILK_INJECT_RATE (ppm, all points) /
  /// ICILK_INJECT_DELAY_SPINS from the environment, when set.
  static Config from_env(Config base);
  static Config from_env() { return from_env(Config()); }
};

/// One injected (non-kNone) decision, as recorded in a stream's log.
/// `index` is the stream's decision counter at the time — together with
/// the seed and stream id it replays via Engine::eval.
struct Decision {
  std::uint64_t index;
  Point point;
  Action action;
  std::uint32_t arg;

  bool operator==(const Decision&) const = default;
};

/// The deterministic decision engine. Install one globally to activate
/// the hooks; decisions advance per-thread streams. Threads register
/// lazily (stream ids in registration order) or pin an explicit id with
/// bind_stream — tests use pinning so two runs compare stream-for-stream.
class Engine {
 public:
  explicit Engine(const Config& cfg);
  ~Engine();  // uninstalls itself if active

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Makes this engine the process-wide active one. At most one engine
  /// may be active; install before starting the load you want faulted.
  void install() noexcept;
  /// Deactivates and QUIESCES: waits out probes that already hold the
  /// engine pointer, so the engine is safe to destroy on return (engines
  /// commonly live on a test's stack while runtime threads probe them).
  void uninstall() noexcept;
  static Engine* active() noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Guarded out-of-line probe: registers in a global in-flight count,
  /// re-loads the active engine, and decides. uninstall() spins on that
  /// count, so the engine cannot be torn down under a running decide().
  static Outcome probe_slow(Point p) noexcept;

  /// Advances the calling thread's stream by one decision at `p`.
  Outcome decide(Point p) noexcept;

  /// Pins the calling thread to stream `id` for this engine (idempotent
  /// for the same id). Must happen before the thread's first decide().
  void bind_stream(std::uint32_t id);

  /// THE replay contract: decision `n` on stream `s` is this pure
  /// function of the config — no clocks, no global state. decide() is
  /// exactly eval(cfg, stream, counter++, p).
  static Outcome eval(const Config& cfg, std::uint32_t stream,
                      std::uint64_t n, Point p) noexcept;

  // ---- introspection / replay verification ----

  const Config& config() const noexcept { return cfg_; }
  /// Total decisions taken (all streams, hits and misses).
  std::uint64_t decisions() const noexcept;
  /// Total injected (non-kNone) decisions.
  std::uint64_t injected() const noexcept;
  std::uint64_t injected_at(Point p) const noexcept {
    return injected_[static_cast<int>(p)].load(std::memory_order_relaxed);
  }
  /// Copy of stream `id`'s injected-decision log (empty if unknown id).
  std::vector<Decision> stream_log(std::uint32_t id) const;
  std::size_t stream_count() const;

 private:
  struct Stream {
    std::uint32_t id = 0;
    std::atomic<std::uint64_t> counter{0};  // single-writer, racy readers
    std::vector<Decision> log;              // owner-thread writes only
  };

  Stream& this_stream();

  static std::atomic<Engine*> active_;

  Config cfg_;
  const std::uint64_t serial_;  // disambiguates tls caches across engines
  mutable std::mutex mu_;       // stream registration / enumeration
  std::vector<std::unique_ptr<Stream>> streams_;
  std::uint32_t next_stream_id_ = 0;
  std::atomic<std::uint64_t> injected_[kPointCount] = {};
};

/// Deterministic bounded spin (the kDelay payload).
void spin_delay(std::uint32_t iters) noexcept;

/// Applies the schedule-perturbing actions; ignores everything else.
inline void maybe_pause(const Outcome& o) noexcept {
  if (o.action == Action::kYield) {
    ::sched_yield();
  } else if (o.action == Action::kDelay) {
    spin_delay(o.arg);
  }
}

#if ICILK_INJECT_ENABLED

constexpr bool compiled_in() noexcept { return true; }

/// True when an engine is installed — the "any crosspoint may fire"
/// predicate. Callers that INLINE a hook's common case (rather than
/// calling probe) must route to their out-of-line slow path whenever this
/// holds, so injection sees every decision point. Constant false when
/// compiled out, so the guard folds away entirely.
inline bool armed() noexcept { return Engine::active() != nullptr; }

/// Out-of-line slow path (engine installed).
Outcome probe_active(Point p) noexcept;

/// THE hook: one relaxed load + branch when idle; a no-op constant when
/// compiled out. Every crosspoint in the runtime goes through this.
inline Outcome probe(Point p) noexcept {
  if (Engine::active() == nullptr) return {};
  return probe_active(p);
}

#else  // ICILK_INJECT_ENABLED

constexpr bool compiled_in() noexcept { return false; }
constexpr bool armed() noexcept { return false; }
constexpr Outcome probe(Point) noexcept { return {}; }

#endif  // ICILK_INJECT_ENABLED

}  // namespace icilk::inject
