// Windowed time-series telemetry: epoch-sliced latency digests, counter
// deltas, and scheduler gauges over a bounded ring of recent windows.
//
// Every other observability surface (MetricsRegistry, /metrics, /latency,
// flight bundles) reports cumulative-since-start aggregates, which average
// a burst away: a 30s run with a 5s burst in the middle shows one blended
// p99. This module adds the time axis. close_epoch() ends a window
// (default 1s) by
//
//   * differencing the registry's cumulative per-priority request-latency
//     histograms (ReqLevelStats::total_ns) bucket by bucket against the
//     snapshot taken at the previous close, and digesting the difference
//     (p50/p99/max + completion count — i.e. per-level throughput),
//   * taking DELTAS of the MetricsRegistry scheduler counters (steals /
//     mugs / abandons / resumes / I/O submits+completes) the same way, and
//   * copying the instantaneous scheduler gauges (active-level bitfield,
//     per-level pool + mugging depth, sleepers, reactor armed ops and
//     pending timers) out of the caller's WdSample,
//
// then pushes the digest into a ring of the last N epochs. The ring is
// exposed as JSON (`/timeseries` on the metrics endpoint), as a
// `stats icilk timeseries` STAT group, and embedded in watchdog flight
// bundles so a trip carries the preceding seconds of windowed history.
//
// The runtime's one obs sampler thread (Runtime::sampler_main) fills a
// WdSample each tick, hands it to the watchdog, and calls close_epoch
// with the same sample once due() says the epoch deadline has passed.
// Nothing here runs on the request path: completions are recorded once,
// into the registry, and an epoch's count telescopes across closes, so
// every recorded request lands in exactly one epoch.
//
// max_ns is min(upper edge of the highest non-empty delta bucket, the
// cumulative max): exact whenever the epoch holds the running maximum,
// otherwise within one bucket width (<= ~1.6%) above the epoch's true max.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "concurrent/clock.hpp"
#include "obs/trace.hpp"     // EventKind (which counters we delta)
#include "obs/watchdog.hpp"  // WdSample (the shared gauge snapshot shape)

namespace icilk::obs {

class MetricsRegistry;

// ---------------------------------------------------------------------------
// One closed epoch
// ---------------------------------------------------------------------------

/// Digest of one closed window: plain data, fixed size, copyable.
struct TsEpoch {
  static constexpr int kMaxLevels = 64;

  std::uint64_t seq = 0;          ///< 0-based epoch number
  std::uint64_t t_ns = 0;         ///< t_ns of the sample that closed it
  std::uint64_t duration_ns = 0;  ///< actual window width (sampler jitter)

  /// Per-priority latency digest of requests that COMPLETED this epoch.
  /// count/duration is the per-level completion throughput.
  struct LevelLat {
    std::uint64_t count = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t max_ns = 0;
  };
  LevelLat lat[kMaxLevels];

  // Scheduler counter deltas over the window (summed across levels, from
  // MetricsRegistry::counter_total; all zero when no registry is wired).
  std::uint64_t steals = 0;
  std::uint64_t mugs = 0;
  std::uint64_t abandons = 0;
  std::uint64_t resumes = 0;
  std::uint64_t io_submits = 0;
  std::uint64_t io_completes = 0;

  // Work/span profiler deltas over the window (from the registry's
  // cumulative spanprof totals; all zero when no registry is wired or the
  // profiler is off): requests measured, total work, total span. Per-epoch
  // work/duration is the window's task-CPU utilization numerator.
  std::uint64_t sp_reqs = 0;
  std::uint64_t sp_work_ns = 0;
  std::uint64_t sp_span_ns = 0;

  // Instantaneous gauges at epoch close (from the closing WdSample).
  std::uint64_t bitfield = 0;
  std::int32_t num_levels = 0;
  std::uint32_t pool_depth[kMaxLevels] = {};
  std::uint32_t mug_depth[kMaxLevels] = {};
  std::int32_t sleepers = 0;
  std::int64_t io_armed = 0;
  std::int64_t timers_pending = 0;
};

// ---------------------------------------------------------------------------
// The timeseries itself
// ---------------------------------------------------------------------------

/// Digest ring + delta baselines; the runtime creates one when
/// cfg.timeseries_enabled. Thread-safe: the closing thread and any number
/// of endpoint readers may run concurrently.
class TimeSeries {
 public:
  struct Config {
    /// Window width. 1s matches the client-side per-epoch RESULT rows of
    /// bench/fig_burst so scripts/tsreport.py can join the two axes.
    int epoch_ms = 1000;
    /// Retained epochs (the ring /timeseries and flight bundles expose).
    int epochs = 120;

    /// Optional: latency digests and counter deltas are computed against
    /// this registry (all zero when none is wired).
    MetricsRegistry* metrics = nullptr;
    /// Active scheduling policy name (stamped into the JSON document).
    std::string scheduler;
  };

  explicit TimeSeries(Config cfg);

  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// True once the current epoch's deadline (open + epoch_ms, on a fixed
  /// grid from construction) is at or before `t_ns`.
  bool due(std::uint64_t t_ns) const;

  /// Closes the current epoch at `s.t_ns` (now when 0), taking its gauges
  /// from `s`. Tests drive the ring deterministically with this.
  void close_epoch(const WdSample& s);

  std::uint64_t epochs_closed() const noexcept {
    return epochs_closed_.load(std::memory_order_relaxed);
  }
  /// Copy of the retained ring, oldest first.
  std::vector<TsEpoch> epochs() const;
  /// Most recent closed epoch (zeroed when none closed yet).
  TsEpoch latest() const;

  // ---- exposition ----

  /// Full JSON document: config header + the ring, oldest first (the
  /// /timeseries endpoint body; also embedded in flight bundles).
  /// `max_epochs` > 0 bounds the document to the NEWEST that many epochs
  /// (the /timeseries?n=K window); 0 means the whole ring.
  std::string json(std::size_t max_epochs = 0) const;
  /// The same document with no epochs (the /timeseries body when off).
  static std::string disabled_json(std::string_view scheduler);
  /// "STAT <prefix>ts_<name> <value>" lines for the latest epoch (the
  /// `stats icilk timeseries` group; eol is "\r\n" there).
  std::string stats_text(const std::string& prefix,
                         const std::string& eol) const;

  const Config& config() const noexcept { return cfg_; }

 private:
  std::uint64_t epoch_ns() const noexcept;
  void digest_latency(TsEpoch& e);
  void digest_counters(TsEpoch& e);

  Config cfg_;

  // Ring + delta memory. A plain mutex is fine — epochs close at ~1Hz and
  // readers are stats endpoints, never the scheduler hot path.
  mutable std::mutex mu_;
  std::vector<TsEpoch> ring_;  // capacity cfg_.epochs
  std::size_t ring_next_ = 0;  // next write slot
  std::size_t ring_size_ = 0;  // valid entries
  std::uint64_t epoch_open_ns_ = 0;  ///< when the current window opened
  std::uint64_t next_due_ns_ = 0;    ///< the current window's deadline
  /// Per-level bucket counts of the registry's total_ns histogram at the
  /// previous close (empty until the level first completes a request).
  std::vector<std::uint64_t> prev_lat_[TsEpoch::kMaxLevels];
  /// Previous cumulative counter totals (delta baseline), indexed by the
  /// EventKind values digest_counters deltas.
  std::uint64_t prev_counts_[static_cast<int>(EventKind::kCount)] = {};
  /// Spanprof cumulative-total baselines (same delta discipline).
  std::uint64_t prev_sp_reqs_ = 0;
  std::uint64_t prev_sp_work_ = 0;
  std::uint64_t prev_sp_span_ = 0;

  std::atomic<std::uint64_t> epochs_closed_{0};
};

}  // namespace icilk::obs
