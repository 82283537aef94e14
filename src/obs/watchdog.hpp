// Scheduler flight recorder: continuous invariant sampling, a promptness
// watchdog, and post-mortem dump bundles.
//
// The obs layer so far RECORDS what the scheduler did (trace rings, the
// metrics registry, request timelines) but never CHECKS it. This module
// closes the loop: the runtime's obs sampler thread snapshots scheduler
// state on a fixed period and hands each snapshot to sample_once(), which
// runs invariant detectors over the series:
//
//   promptness violation  the bitfield shows level p occupied beyond a
//                         threshold while some worker persists at a lower
//                         level (or sleeps) — the property Section 4's
//                         frequent checking exists to guarantee;
//   aging stall           a Resumable deque's age exceeds a threshold
//                         while workers are idle or working below its
//                         level — FIFO pool service should have picked it
//                         up (a lost/delayed resumability publication);
//   sleep/wake storm      the idle-sleep notify rate exceeds a threshold
//                         for consecutive samples (broadcast anomaly);
//   census leak           the suspended-deque census grows monotonically
//                         across a window in which no task completed
//                         (suspensions that will never resume).
//
// Any detector firing — or an on-demand trigger via SIGUSR2 or the
// `stats icilk dump` command — writes a flight-recorder bundle
// (obs/flightrec.hpp): drained trace rings, full metrics with worst-K
// request timelines, the sample history, the tripping snapshot, build
// flags, and the active fault-injection seed, so any alarm is replayable.
//
// Layering: this file sees only obs types. WdSample is plain data the
// core fills in (Runtime::wd_fill_sample) and pushes in. The suspended/
// resumable census is a process-global sharded registry keyed by opaque
// deque addresses — the deque hooks below never get dereferenced here.
//
// Cost model (mirrors inject/reqtrace):
//   * ICILK_OBS=OFF (-DICILK_OBS_ENABLED=0): every hook in this
//     header inlines to nothing; no hot-path object references a watchdog
//     symbol (scripts/soak.sh obsoff proves it, plus probe==baseline in
//     bench/micro_watchdog). The Watchdog class itself stays compiled
//     (tests drive it with synthetic samples), but the runtime never
//     instantiates one.
//   * Compiled in: the census hooks cost one shard spinlock + hash-map op
//     per deque STATE TRANSITION (suspend/resume/mug/death — paths that
//     already park fibers or take the deque lock; never the spawn fast
//     path); the worker state word is one relaxed store per acquire
//     transition. Sampling is ~100 gauge reads every period_ms on the
//     runtime's obs sampler thread (shared with the timeseries).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "concurrent/clock.hpp"
#include "obs/compiled_in.hpp"

namespace icilk::obs {

class JsonWriter;
class MetricsRegistry;
class TraceSink;

// ---------------------------------------------------------------------------
// The sampled state
// ---------------------------------------------------------------------------

/// What a worker is doing, as published in its per-worker state word.
enum class WdWorkerState : std::uint8_t {
  kUnknown = 0,  ///< not yet published (worker starting / state word idle)
  kWorking,      ///< running task code at its level
  kStealing,     ///< in acquire, probing pools
  kSleeping,     ///< parked on the idle condvar
};
const char* wd_worker_state_name(WdWorkerState s) noexcept;

/// Packs (state, level) into the worker's published-state word.
constexpr std::uint32_t wd_pack_state(WdWorkerState s, int level) noexcept {
  return static_cast<std::uint32_t>(s) |
         (static_cast<std::uint32_t>(level & 0xff) << 8);
}
constexpr WdWorkerState wd_state_of(std::uint32_t w) noexcept {
  return static_cast<WdWorkerState>(w & 0xff);
}
constexpr int wd_level_of(std::uint32_t w) noexcept {
  return static_cast<int>((w >> 8) & 0xff);
}

/// One sampler snapshot: plain data, fixed size, copyable. The runtime's
/// wd_fill_sample fills it (scheduler pool depths + bitfield via the
/// scheduler's wd_fill hook; census/worker/reactor gauges from the runtime
/// itself).
struct WdSample {
  static constexpr int kMaxLevels = 64;
  static constexpr int kMaxWorkers = 64;

  std::uint64_t t_ns = 0;        ///< now_ns() at sample time
  std::uint64_t bitfield = 0;    ///< active-levels bitfield snapshot
  std::int32_t num_levels = 0;
  std::int32_t num_workers = 0;

  // Per-level: centralized pool depth (regular + mugging), the mugging
  // queue alone, and the runtime's non-empty-deque census gauge.
  std::uint32_t pool_depth[kMaxLevels] = {};
  std::uint32_t mug_depth[kMaxLevels] = {};
  std::int64_t census[kMaxLevels] = {};

  // Per-worker published state (state word decoded).
  std::uint8_t worker_state[kMaxWorkers] = {};  ///< WdWorkerState
  std::uint8_t worker_level[kMaxWorkers] = {};

  // Idle-sleep machinery (the paper's wake mechanism, PromptScheduler).
  std::int32_t sleepers = 0;            ///< workers parked on the condvar
  std::uint64_t wakeups = 0;            ///< cumulative notify_one calls
  std::uint64_t zero_transitions = 0;   ///< cumulative 0 -> non-zero edges

  std::uint64_t tasks_run = 0;          ///< cumulative task completions

  // Suspended/resumable deque census with age percentiles (from the
  // process-global registry the deque hooks maintain).
  std::uint32_t suspended = 0;
  std::uint32_t resumable = 0;
  std::uint64_t susp_age_p50_ns = 0;
  std::uint64_t susp_age_p99_ns = 0;
  std::uint64_t susp_age_max_ns = 0;
  std::uint64_t res_age_p50_ns = 0;
  std::uint64_t res_age_p99_ns = 0;
  std::uint64_t res_age_max_ns = 0;
  /// Highest priority level with a Resumable registry entry, and the age
  /// of the oldest such entry (the aging detector's subject); -1 = none.
  std::int32_t res_oldest_level = -1;
  std::uint64_t res_oldest_age_ns = 0;

  // Reactor queue depths (MetricsRegistry I/O gauges; 0 when no reactor).
  std::int64_t io_armed = 0;        ///< ops parked in fd slots
  std::int64_t timers_pending = 0;  ///< timers across all shards
};

// ---------------------------------------------------------------------------
// Hot-path hooks (deque state transitions, worker state word)
// ---------------------------------------------------------------------------

/// Census registry states. kGone removes the entry.
enum class WdDequeState : std::uint8_t { kGone = 0, kSuspended, kResumable };

#if ICILK_OBS_ENABLED

/// Records deque `key` as suspended/resumable since `since_ns` at priority
/// `level`, or removes it (kGone). Sharded; safe from any thread; `key` is
/// never dereferenced.
void wd_census_note(const void* key, WdDequeState st, std::uint64_t since_ns,
                    int level) noexcept;

/// Publishes a worker state transition into its state word.
inline void wd_publish_state(std::atomic<std::uint32_t>& word,
                             WdWorkerState s, int level) noexcept {
  word.store(wd_pack_state(s, level), std::memory_order_relaxed);
}

#else  // !ICILK_OBS_ENABLED

inline void wd_census_note(const void*, WdDequeState, std::uint64_t,
                           int) noexcept {}
inline void wd_publish_state(std::atomic<std::uint32_t>&, WdWorkerState,
                             int) noexcept {}

#endif  // ICILK_OBS_ENABLED

/// Census registry aggregate (always available; empty when compiled out).
struct WdCensusStats {
  std::uint32_t suspended = 0;
  std::uint32_t resumable = 0;
};
WdCensusStats wd_census_stats() noexcept;
/// Fills the suspended/resumable census fields of `s` (counts, age
/// percentiles, oldest resumable level) as of `now_ns`.
void wd_census_fill(WdSample& s, std::uint64_t now_ns) noexcept;

// ---------------------------------------------------------------------------
// Invariant detectors
// ---------------------------------------------------------------------------

enum class WdDetector : int {
  kPromptness = 0,  ///< level occupied while a worker persists below it
  kAgingStall,      ///< resumable deque aged past threshold, workers idle
  kWakeStorm,       ///< idle-sleep notify rate anomaly
  kCensusLeak,      ///< suspended census grows while completions are flat
  kCount
};
inline constexpr int kWdDetectorCount = static_cast<int>(WdDetector::kCount);
const char* wd_detector_name(WdDetector d) noexcept;

// ---------------------------------------------------------------------------
// The watchdog itself
// ---------------------------------------------------------------------------

/// Detectors + sample history + bundle trigger. Always compiled (the
/// compile-out contract is about the HOT-PATH hooks above; the runtime
/// simply never creates a watchdog when the subsystem is off).
/// Thread-safe: one sampling thread and any number of stats/endpoint
/// readers may run concurrently.
class Watchdog {
 public:
  struct Config {
    /// Sampling period (the runtime's sampler ticks at it). The default
    /// trades ~100 gauge reads per 10ms for sub-period detection latency;
    /// benches run minicached with this on and stay within 1% of baseline
    /// throughput.
    int period_ms = 10;
    /// Retained sample-history ring (bundles include all of it).
    int history = 128;

    /// Optional: sampled gauges + trip counters are mirrored here (the
    /// `/metrics` / `stats icilk` surfaces render them).
    MetricsRegistry* metrics = nullptr;
    /// Optional: bundles drain these trace rings (Chrome JSON).
    TraceSink* trace = nullptr;
    /// Optional: bundles embed this windowed epoch ring
    /// (obs/timeseries.hpp) so a trip carries the preceding seconds of
    /// per-epoch history.
    const class TimeSeries* timeseries = nullptr;
    /// Optional: returns the active fault-injection seed (0 = no engine);
    /// stamped into every bundle so alarms replay. Plumbed as a callback
    /// because obs cannot depend on src/inject (inject depends on obs).
    std::function<std::uint64_t()> inject_seed_fn;

    // ---- detector thresholds ----
    bool detectors_enabled = true;
    /// Promptness: level occupied this long with a worker below it.
    std::uint64_t promptness_threshold_ms = 100;
    /// Aging: a resumable deque this old while workers sit idle/below.
    std::uint64_t aging_threshold_ms = 100;
    /// Wake storm: notify_one rate above this for `wake_storm_samples`
    /// consecutive samples.
    double wake_storm_per_s = 250000.0;
    int wake_storm_samples = 4;
    /// Census leak: suspended census strictly grows for this many
    /// consecutive samples while task completions stay flat.
    int census_leak_samples = 12;

    // ---- bundles ----
    std::string bundle_dir = ".";
    std::string bundle_prefix = "icilk_flight";
    /// Auto (detector-tripped) bundles are rate-limited and capped;
    /// manual dumps (dump_now / SIGUSR2) are always honored.
    int max_auto_bundles = 3;
    std::uint64_t bundle_min_interval_ms = 1000;
    /// Poll the process-wide SIGUSR2 counter on every sample_once and
    /// dump on each delivery (the constructor installs the handler).
    bool handle_sigusr2 = false;
    /// Build-flag provenance line; defaults to flightrec's
    /// build_flags_string().
    std::string build_flags;
    /// Active scheduling policy name (Scheduler::name()); stamped into
    /// bundles and /health so a capture can't be attributed to the wrong
    /// scheduler.
    std::string scheduler;
  };

  explicit Watchdog(Config cfg);

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Consumes one sample: history ring, gauge mirror, detector pass, and
  /// the SIGUSR2 poll. The runtime's sampler calls it every tick; tests
  /// drive detectors deterministically with scripted samples. One caller
  /// at a time.
  void sample_once(const WdSample& s);

  std::uint64_t samples() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }
  /// Copy of the retained history, oldest first.
  std::vector<WdSample> history() const;
  /// Most recent sample (zeroed when none taken yet).
  WdSample latest() const;

  std::uint64_t trips(WdDetector d) const noexcept {
    return trips_[static_cast<int>(d)].load(std::memory_order_relaxed);
  }
  std::uint64_t trips_total() const noexcept;
  std::uint64_t bundles_written() const noexcept {
    return bundles_.load(std::memory_order_acquire);
  }
  /// Path of the most recently written bundle ("" if none).
  std::string last_bundle_path() const;

  /// Writes a bundle on demand (`stats icilk dump`, SIGUSR2, tests).
  /// Returns the path, or "" on I/O failure.
  std::string dump_now(const std::string& reason);

  // ---- exposition ----

  /// JSON health document: latest gauges, detector trip counts, bundle
  /// count (the /health endpoint body).
  std::string health_json() const;
  /// Its "watchdog" member; the not-running form when `wd` is null.
  static void write_health(JsonWriter& w, const Watchdog* wd,
                           std::string_view scheduler);
  /// "STAT <prefix>wd_<name> <value>" lines (the `stats icilk health`
  /// group; eol is "\r\n" there).
  std::string health_stats_text(const std::string& prefix,
                                const std::string& eol) const;

  const Config& config() const noexcept { return cfg_; }

  /// Installs the process-wide SIGUSR2 handler (idempotent). The handler
  /// only bumps a counter; watchdogs with handle_sigusr2 poll it.
  static void install_sigusr2();
  /// Deliveries observed so far (tests).
  static std::uint64_t sigusr2_count() noexcept;

 private:
  void run_detectors(const WdSample& s);
  void trip(WdDetector d, const WdSample& s, std::string detail);
  std::string write_bundle(const std::string& reason,
                           const std::string& detail, const WdSample& snap);
  void mirror_gauges(const WdSample& s);

  Config cfg_;

  // Sampler state: ring + detector memories. A plain mutex is fine — the
  // sampler runs at ~100Hz and readers are stats endpoints, never the
  // scheduler hot path.
  mutable std::mutex mu_;
  std::vector<WdSample> ring_;        // capacity cfg_.history
  std::size_t ring_next_ = 0;         // next write slot
  std::size_t ring_size_ = 0;         // valid entries
  std::string last_bundle_;

  // Detector memories (all guarded by mu_; sample_once holds it).
  std::uint64_t occupied_since_[WdSample::kMaxLevels] = {};
  bool prompt_armed_[WdSample::kMaxLevels];
  bool have_prev_ = false;
  WdSample prev_;
  int storm_streak_ = 0;
  int leak_streak_ = 0;
  std::uint32_t leak_prev_suspended_ = 0;
  std::uint64_t leak_prev_tasks_ = 0;
  bool aging_armed_ = true;
  std::uint64_t last_auto_bundle_ns_ = 0;
  std::uint64_t sigusr2_handled_ = 0;

  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> trips_[kWdDetectorCount] = {};
  std::atomic<std::uint64_t> auto_bundles_{0};
  std::atomic<std::uint64_t> bundles_{0};
  std::atomic<std::uint64_t> bundle_seq_{0};
};

}  // namespace icilk::obs
