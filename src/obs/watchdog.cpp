#include "obs/watchdog.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "concurrent/cacheline.hpp"
#include "concurrent/spinlock.hpp"
#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace icilk::obs {

const char* wd_worker_state_name(WdWorkerState s) noexcept {
  switch (s) {
    case WdWorkerState::kUnknown: return "unknown";
    case WdWorkerState::kWorking: return "working";
    case WdWorkerState::kStealing: return "stealing";
    case WdWorkerState::kSleeping: return "sleeping";
  }
  return "?";
}

const char* wd_detector_name(WdDetector d) noexcept {
  switch (d) {
    case WdDetector::kPromptness: return "promptness";
    case WdDetector::kAgingStall: return "aging_stall";
    case WdDetector::kWakeStorm: return "wake_storm";
    case WdDetector::kCensusLeak: return "census_leak";
    case WdDetector::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Suspended/resumable census registry
// ---------------------------------------------------------------------------

#if ICILK_OBS_ENABLED

namespace {

struct CensusEntry {
  WdDequeState state;
  std::uint64_t since_ns;
  std::int16_t level;
};

// Sharded by deque address so concurrent suspend/resume from different
// workers rarely contend; sampler scans all shards (~100Hz, cold).
struct alignas(kCacheLineSize) CensusShard {
  SpinLock mu;
  std::unordered_map<const void*, CensusEntry> map;
};

constexpr std::size_t kCensusShards = 16;
CensusShard g_census[kCensusShards];

inline CensusShard& census_shard(const void* key) noexcept {
  auto h = reinterpret_cast<std::uintptr_t>(key);
  h ^= h >> 17;  // heap addresses share low alignment bits
  return g_census[(h >> 4) & (kCensusShards - 1)];
}

}  // namespace

void wd_census_note(const void* key, WdDequeState st, std::uint64_t since_ns,
                    int level) noexcept {
  auto& sh = census_shard(key);
  sh.mu.lock();
  if (st == WdDequeState::kGone) {
    sh.map.erase(key);
  } else {
    sh.map[key] =
        CensusEntry{st, since_ns, static_cast<std::int16_t>(level)};
  }
  sh.mu.unlock();
}

WdCensusStats wd_census_stats() noexcept {
  WdCensusStats out;
  for (auto& sh : g_census) {
    sh.mu.lock();
    for (const auto& [key, e] : sh.map) {
      (void)key;
      if (e.state == WdDequeState::kSuspended) {
        ++out.suspended;
      } else {
        ++out.resumable;
      }
    }
    sh.mu.unlock();
  }
  return out;
}

namespace {

std::uint64_t percentile(std::vector<std::uint64_t>& v, int pct) noexcept {
  if (v.empty()) return 0;
  std::size_t idx = (v.size() - 1) * static_cast<std::size_t>(pct) / 100;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

}  // namespace

void wd_census_fill(WdSample& s, std::uint64_t now_ns) noexcept {
  // Two passes over small per-shard maps; entries whose stamp races past
  // `now_ns` clamp to age 0.
  std::vector<std::uint64_t> susp_ages;
  std::vector<std::uint64_t> res_ages;
  std::uint64_t res_oldest_age = 0;
  int res_oldest_level = -1;
  for (auto& sh : g_census) {
    sh.mu.lock();
    for (const auto& [key, e] : sh.map) {
      (void)key;
      std::uint64_t age = now_ns > e.since_ns ? now_ns - e.since_ns : 0;
      if (e.state == WdDequeState::kSuspended) {
        susp_ages.push_back(age);
      } else {
        res_ages.push_back(age);
        if (age >= res_oldest_age) {
          res_oldest_age = age;
          res_oldest_level = e.level;
        }
      }
    }
    sh.mu.unlock();
  }
  s.suspended = static_cast<std::uint32_t>(susp_ages.size());
  s.resumable = static_cast<std::uint32_t>(res_ages.size());
  s.susp_age_max_ns = susp_ages.empty()
                          ? 0
                          : *std::max_element(susp_ages.begin(),
                                              susp_ages.end());
  s.res_age_max_ns = res_oldest_age;
  s.susp_age_p50_ns = percentile(susp_ages, 50);
  s.susp_age_p99_ns = percentile(susp_ages, 99);
  s.res_age_p50_ns = percentile(res_ages, 50);
  s.res_age_p99_ns = percentile(res_ages, 99);
  s.res_oldest_level = res_oldest_level;
  s.res_oldest_age_ns = res_oldest_age;
}

#else  // !ICILK_OBS_ENABLED

WdCensusStats wd_census_stats() noexcept { return {}; }
void wd_census_fill(WdSample&, std::uint64_t) noexcept {}

#endif  // ICILK_OBS_ENABLED

// ---------------------------------------------------------------------------
// SIGUSR2 plumbing
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_sigusr2_count{0};

extern "C" void wd_sigusr2_handler(int) {
  // Signal handler: only a lock-free atomic bump; a polling watchdog
  // turns it into a dump from its own thread.
  g_sigusr2_count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void Watchdog::install_sigusr2() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true, std::memory_order_acq_rel)) return;
  struct sigaction sa = {};
  sa.sa_handler = &wd_sigusr2_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR2, &sa, nullptr);
}

std::uint64_t Watchdog::sigusr2_count() noexcept {
  return g_sigusr2_count.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

Watchdog::Watchdog(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.period_ms < 1) cfg_.period_ms = 1;
  if (cfg_.history < 2) cfg_.history = 2;
  if (cfg_.build_flags.empty()) cfg_.build_flags = build_flags_string();
  ring_.resize(static_cast<std::size_t>(cfg_.history));
  for (bool& armed : prompt_armed_) armed = true;
  if (cfg_.handle_sigusr2) {
    install_sigusr2();
    sigusr2_handled_ = sigusr2_count();
  }
}

void Watchdog::sample_once(const WdSample& s) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ring_[ring_next_] = s;
    ring_next_ = (ring_next_ + 1) % ring_.size();
    if (ring_size_ < ring_.size()) ++ring_size_;
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
  mirror_gauges(s);
  if (cfg_.detectors_enabled) run_detectors(s);
  if (cfg_.handle_sigusr2) {
    const std::uint64_t seen = sigusr2_count();
    if (seen != sigusr2_handled_) {
      sigusr2_handled_ = seen;
      dump_now("sigusr2");
    }
  }
}

namespace {

WdGauge wd_trip_gauge(WdDetector d) noexcept {
  switch (d) {
    case WdDetector::kPromptness: return WdGauge::kTripPromptness;
    case WdDetector::kAgingStall: return WdGauge::kTripAging;
    case WdDetector::kWakeStorm: return WdGauge::kTripWakeStorm;
    case WdDetector::kCensusLeak: return WdGauge::kTripCensusLeak;
    case WdDetector::kCount: break;
  }
  return WdGauge::kCount;
}

// True when worker w of sample `s` sits somewhere that cannot service
// level `h`: working strictly below it, or asleep.
bool worker_below(const WdSample& s, int w, int h) noexcept {
  auto st = static_cast<WdWorkerState>(s.worker_state[w]);
  if (st == WdWorkerState::kSleeping) return true;
  return st == WdWorkerState::kWorking && s.worker_level[w] < h;
}

// True when worker w could have serviced a resumable deque at level `p`
// but is not doing level>=p work: idle (stealing or sleeping) or working
// strictly below p.
bool worker_idle_or_below(const WdSample& s, int w, int p) noexcept {
  auto st = static_cast<WdWorkerState>(s.worker_state[w]);
  if (st == WdWorkerState::kSleeping || st == WdWorkerState::kStealing) {
    return true;
  }
  return st == WdWorkerState::kWorking && s.worker_level[w] < p;
}

}  // namespace

void Watchdog::run_detectors(const WdSample& s) {
  struct Fired {
    WdDetector d;
    std::string detail;
  };
  std::vector<Fired> fired;

  {
    std::lock_guard<std::mutex> lk(mu_);

    // --- promptness: level h occupied past threshold while a worker
    // persists below it (paper §4: every crosspoint must move workers to
    // the highest occupied level; the bounded idle wait must wake
    // sleepers). Requires the condition on two consecutive samples so a
    // worker caught mid-transition can't trip it.
    const std::uint64_t prompt_thr = cfg_.promptness_threshold_ms * 1000000ull;
    int highest = -1;
    for (int p = 0; p < s.num_levels && p < WdSample::kMaxLevels; ++p) {
      if ((s.bitfield >> p) & 1u) {
        if (occupied_since_[p] == 0) occupied_since_[p] = s.t_ns;
        highest = p;
      } else {
        occupied_since_[p] = 0;
        prompt_armed_[p] = true;
      }
    }
    if (highest >= 0 && prompt_armed_[highest] &&
        occupied_since_[highest] != 0 &&
        s.t_ns - occupied_since_[highest] > prompt_thr && have_prev_ &&
        occupied_since_[highest] <= prev_.t_ns) {
      for (int w = 0; w < s.num_workers && w < WdSample::kMaxWorkers; ++w) {
        if (worker_below(s, w, highest) && worker_below(prev_, w, highest)) {
          char buf[192];
          std::snprintf(
              buf, sizeof buf,
              "level %d occupied %llums while worker %d stayed %s at level "
              "%d",
              highest,
              static_cast<unsigned long long>(
                  (s.t_ns - occupied_since_[highest]) / 1000000ull),
              w,
              wd_worker_state_name(
                  static_cast<WdWorkerState>(s.worker_state[w])),
              static_cast<int>(s.worker_level[w]));
          fired.push_back({WdDetector::kPromptness, buf});
          prompt_armed_[highest] = false;  // re-arm when the level clears
          break;
        }
      }
    }

    // --- aging stall: the oldest resumable deque aged past threshold
    // while a worker was idle or below its level on two consecutive
    // samples. Published resumable work is FIFO-serviced in microseconds
    // when anyone probes the level, so a persistent aged entry + idle
    // workers means its publication was lost or delayed.
    const std::uint64_t aging_thr = cfg_.aging_threshold_ms * 1000000ull;
    if (s.res_oldest_age_ns > aging_thr && s.res_oldest_level >= 0) {
      if (aging_armed_ && have_prev_ && prev_.res_oldest_age_ns > aging_thr) {
        for (int w = 0; w < s.num_workers && w < WdSample::kMaxWorkers; ++w) {
          if (worker_idle_or_below(s, w, s.res_oldest_level) &&
              worker_idle_or_below(prev_, w, s.res_oldest_level)) {
            char buf[160];
            std::snprintf(
                buf, sizeof buf,
                "resumable deque at level %d aged %llums with worker %d %s",
                s.res_oldest_level,
                static_cast<unsigned long long>(s.res_oldest_age_ns /
                                                1000000ull),
                w,
                wd_worker_state_name(
                    static_cast<WdWorkerState>(s.worker_state[w])));
            fired.push_back({WdDetector::kAgingStall, buf});
            aging_armed_ = false;
            break;
          }
        }
      }
    } else {
      aging_armed_ = true;  // condition cleared: re-arm
    }

    // --- sleep/wake storm: notify rate above threshold for N consecutive
    // samples.
    if (have_prev_ && s.t_ns > prev_.t_ns && s.wakeups >= prev_.wakeups) {
      double rate = static_cast<double>(s.wakeups - prev_.wakeups) * 1e9 /
                    static_cast<double>(s.t_ns - prev_.t_ns);
      if (rate > cfg_.wake_storm_per_s) {
        if (++storm_streak_ >= cfg_.wake_storm_samples) {
          char buf[128];
          std::snprintf(buf, sizeof buf,
                        "idle-sleep notify rate %.0f/s over %d samples "
                        "(threshold %.0f/s)",
                        rate, storm_streak_, cfg_.wake_storm_per_s);
          fired.push_back({WdDetector::kWakeStorm, buf});
          storm_streak_ = 0;
        }
      } else {
        storm_streak_ = 0;
      }
    }

    // --- census leak: suspended census strictly grows for N consecutive
    // samples in which no task completed. Real workloads either complete
    // tasks while suspending more, or hold a flat census when idle.
    if (have_prev_) {
      bool grew = s.suspended > leak_prev_suspended_;
      bool flat = s.tasks_run == leak_prev_tasks_;
      if (grew && flat) {
        if (++leak_streak_ >= cfg_.census_leak_samples) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "suspended census grew to %u over %d samples with "
                        "zero task completions",
                        s.suspended, leak_streak_);
          fired.push_back({WdDetector::kCensusLeak, buf});
          leak_streak_ = 0;
        }
      } else {
        leak_streak_ = 0;
      }
    }
    leak_prev_suspended_ = s.suspended;
    leak_prev_tasks_ = s.tasks_run;

    prev_ = s;
    have_prev_ = true;
  }

  for (auto& f : fired) trip(f.d, s, std::move(f.detail));
}

void Watchdog::trip(WdDetector d, const WdSample& s, std::string detail) {
  trips_[static_cast<int>(d)].fetch_add(1, std::memory_order_relaxed);
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->wd_set(wd_trip_gauge(d),
                         static_cast<std::int64_t>(trips(d)));
  }
  // Auto bundles are rate-limited and capped; a persistently bad system
  // should not fill the disk.
  bool write = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t now = now_ns();
    if (auto_bundles_.load(std::memory_order_relaxed) <
            static_cast<std::uint64_t>(cfg_.max_auto_bundles) &&
        (last_auto_bundle_ns_ == 0 ||
         now - last_auto_bundle_ns_ >=
             cfg_.bundle_min_interval_ms * 1000000ull)) {
      last_auto_bundle_ns_ = now;
      write = true;
    }
  }
  if (write) {
    auto_bundles_.fetch_add(1, std::memory_order_relaxed);
    write_bundle(wd_detector_name(d), detail, s);
  }
}

std::string Watchdog::dump_now(const std::string& reason) {
  return write_bundle(reason, "on-demand dump", latest());
}

std::string Watchdog::write_bundle(const std::string& reason,
                                   const std::string& detail,
                                   const WdSample& snap) {
  FlightBundle b;
  b.reason = reason;
  b.detail = detail;
  b.build_flags = cfg_.build_flags;
  b.scheduler = cfg_.scheduler;
  b.inject_seed = cfg_.inject_seed_fn ? cfg_.inject_seed_fn() : 0;
  b.trigger = snap;
  b.history = history();
  for (int d = 0; d < kWdDetectorCount; ++d) {
    b.trip_counts[d] = trips_[d].load(std::memory_order_relaxed);
  }
  b.bundles_written = bundles_.load(std::memory_order_relaxed);
  b.metrics = cfg_.metrics;
  b.trace = cfg_.trace;
  b.timeseries = cfg_.timeseries;

  const std::string name =
      (cfg_.bundle_dir.empty() ? "." : cfg_.bundle_dir) + "/" +
      cfg_.bundle_prefix + "_" + std::to_string(::getpid()) + "_" +
      std::to_string(bundle_seq_.fetch_add(1, std::memory_order_relaxed)) +
      ".json";
  std::ofstream os(name, std::ios::out | std::ios::trunc);
  if (!os) return "";
  os << flight_bundle_json(b);
  os.flush();
  if (!os) return "";
  {
    // Path before count: a reader that sees bundles_written() move can
    // read this bundle's path.
    std::lock_guard<std::mutex> lk(mu_);
    last_bundle_ = name;
  }
  bundles_.fetch_add(1, std::memory_order_release);
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->wd_set(WdGauge::kBundles,
                         static_cast<std::int64_t>(bundles_written()));
  }
  return name;
}

void Watchdog::mirror_gauges(const WdSample& s) {
  if (cfg_.metrics == nullptr) return;
  MetricsRegistry& m = *cfg_.metrics;
  m.wd_set(WdGauge::kSamples,
           static_cast<std::int64_t>(samples_.load(std::memory_order_relaxed)));
  m.wd_set(WdGauge::kSleepers, s.sleepers);
  m.wd_set(WdGauge::kWakeups, static_cast<std::int64_t>(s.wakeups));
  m.wd_set(WdGauge::kZeroTransitions,
           static_cast<std::int64_t>(s.zero_transitions));
  m.wd_set(WdGauge::kSuspended, s.suspended);
  m.wd_set(WdGauge::kResumable, s.resumable);
  m.wd_set(WdGauge::kSuspAgeMaxUs,
           static_cast<std::int64_t>(s.susp_age_max_ns / 1000));
  m.wd_set(WdGauge::kResAgeMaxUs,
           static_cast<std::int64_t>(s.res_age_max_ns / 1000));
  m.wd_set(WdGauge::kActiveLevels, std::popcount(s.bitfield));
  m.wd_set(WdGauge::kIoArmed, s.io_armed);
  m.wd_set(WdGauge::kTimersPending, s.timers_pending);
  for (int d = 0; d < kWdDetectorCount; ++d) {
    m.wd_set(wd_trip_gauge(static_cast<WdDetector>(d)),
             static_cast<std::int64_t>(
                 trips_[d].load(std::memory_order_relaxed)));
  }
  m.wd_set(WdGauge::kBundles,
           static_cast<std::int64_t>(bundles_.load(std::memory_order_relaxed)));
}

std::vector<WdSample> Watchdog::history() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<WdSample> out;
  out.reserve(ring_size_);
  std::size_t start =
      (ring_next_ + ring_.size() - ring_size_) % ring_.size();
  for (std::size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

WdSample Watchdog::latest() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_size_ == 0) return WdSample{};
  return ring_[(ring_next_ + ring_.size() - 1) % ring_.size()];
}

std::uint64_t Watchdog::trips_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : trips_) total += t.load(std::memory_order_relaxed);
  return total;
}

std::string Watchdog::last_bundle_path() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_bundle_;
}

std::string Watchdog::health_json() const {
  return json_object(
      [this](JsonWriter& w) { write_health(w, this, cfg_.scheduler); });
}

void Watchdog::write_health(JsonWriter& w, const Watchdog* wd,
                            std::string_view scheduler) {
  auto o = w.object("watchdog");
  w.field("compiled_in", compiled_in());
  if (wd == nullptr) {
    w.field("running", false).field("scheduler", scheduler);
    return;
  }
  const WdSample s = wd->latest();
  w.field("scheduler", wd->cfg_.scheduler);
  w.field("period_ms", wd->cfg_.period_ms).field("samples", wd->samples());
  {
    auto g = w.object("gauges");
    w.field("sleepers", s.sleepers).field("wakeups", s.wakeups);
    w.field("zero_transitions", s.zero_transitions);
    w.field("tasks_run", s.tasks_run);
    w.field("active_levels", std::popcount(s.bitfield));
    w.field("suspended", s.suspended).field("resumable", s.resumable);
    w.field("susp_age_max_ns", s.susp_age_max_ns);
    w.field("res_age_max_ns", s.res_age_max_ns);
    w.field("io_armed", s.io_armed).field("timers_pending", s.timers_pending);
  }
  {
    auto t = w.object("trips");
    for (int d = 0; d < kWdDetectorCount; ++d) {
      const auto det = static_cast<WdDetector>(d);
      w.field(wd_detector_name(det), wd->trips(det));
    }
    w.field("total", wd->trips_total());
  }
  auto b = w.object("bundles");
  w.field("written", wd->bundles_written());
  w.field("last_path", wd->last_bundle_path());
}

std::string Watchdog::health_stats_text(const std::string& prefix,
                                        const std::string& eol) const {
  const WdSample s = latest();
  std::string out;
  const StatLines st(out, prefix + "wd_", eol);
  st.add("samples", samples()).add("period_ms", cfg_.period_ms);
  st.add("sleepers", s.sleepers).add("wakeups", s.wakeups);
  st.add("zero_transitions", s.zero_transitions);
  st.add("active_levels", std::popcount(s.bitfield));
  st.add("suspended", s.suspended).add("resumable", s.resumable);
  st.add("susp_age_max_us", s.susp_age_max_ns / 1000);
  st.add("res_age_max_us", s.res_age_max_ns / 1000);
  st.add("io_armed", s.io_armed).add("timers_pending", s.timers_pending);
  for (int d = 0; d < kWdDetectorCount; ++d) {
    const auto det = static_cast<WdDetector>(d);
    st.add(std::string("trips_") + wd_detector_name(det), trips(det));
  }
  st.add("trips_total", trips_total()).add("bundles", bundles_written());
  return out;
}

}  // namespace icilk::obs
