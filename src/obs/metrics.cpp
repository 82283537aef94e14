#include "obs/metrics.hpp"

#include <algorithm>
#include <string>

#include "obs/json.hpp"

namespace icilk::obs {

const char* io_stat_name(IoStat s) noexcept {
  switch (s) {
    case IoStat::kFdTableProbe: return "fd_probes";
    case IoStat::kFdTableOverflow: return "fd_overflow";
    case IoStat::kFdCancel: return "fd_cancels";
    case IoStat::kStaleEvent: return "stale_events";
    case IoStat::kTimerScheduled: return "timers_sharded";
    case IoStat::kTimerInline: return "timers_inline";
    case IoStat::kCount: break;
  }
  return "unknown";
}

const char* io_gauge_name(IoGauge g) noexcept {
  switch (g) {
    case IoGauge::kArmedOps: return "armed_ops";
    case IoGauge::kTimersPending: return "timers_pending";
    case IoGauge::kCount: break;
  }
  return "unknown";
}

const char* wd_gauge_name(WdGauge g) noexcept {
  switch (g) {
    case WdGauge::kSamples: return "samples";
    case WdGauge::kSleepers: return "sleepers";
    case WdGauge::kWakeups: return "wakeups";
    case WdGauge::kZeroTransitions: return "zero_transitions";
    case WdGauge::kSuspended: return "suspended";
    case WdGauge::kResumable: return "resumable";
    case WdGauge::kSuspAgeMaxUs: return "susp_age_max_us";
    case WdGauge::kResAgeMaxUs: return "res_age_max_us";
    case WdGauge::kActiveLevels: return "active_levels";
    case WdGauge::kIoArmed: return "io_armed";
    case WdGauge::kTimersPending: return "timers_pending";
    case WdGauge::kTripPromptness: return "trips_promptness";
    case WdGauge::kTripAging: return "trips_aging_stall";
    case WdGauge::kTripWakeStorm: return "trips_wake_storm";
    case WdGauge::kTripCensusLeak: return "trips_census_leak";
    case WdGauge::kBundles: return "bundles";
    case WdGauge::kCount: break;
  }
  return "unknown";
}

MetricsRegistry::MetricsRegistry(int num_levels)
    : num_levels_(num_levels < 1 ? 1
                                 : (num_levels > kMaxLevels ? kMaxLevels
                                                            : num_levels)),
      levels_(static_cast<std::size_t>(num_levels_)) {}

MetricsRegistry::~MetricsRegistry() {
  for (auto& slot : req_levels_) {
    delete slot.load(std::memory_order_acquire);
  }
  for (auto& slot : sp_levels_) {
    delete slot.load(std::memory_order_acquire);
  }
}

MetricsRegistry::ReqLevelStats& MetricsRegistry::req_level_mut(int level) {
  std::atomic<ReqLevelStats*>& slot = req_levels_[level];
  ReqLevelStats* s = slot.load(std::memory_order_acquire);
  if (s == nullptr) {
    auto* fresh = new ReqLevelStats();
    if (slot.compare_exchange_strong(s, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      s = fresh;
    } else {
      delete fresh;  // another recorder won; s holds the winner
    }
  }
  return *s;
}

void MetricsRegistry::record_request(const ReqContext& rc,
                                     std::uint64_t total_ns) {
  const int level = static_cast<int>(rc.priority);
  if (!in_range(level)) return;
  ReqLevelStats& s = req_level_mut(level);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.total_ns.record(total_ns);
  for (int i = 0; i < kReqPhaseCount; ++i) {
    s.phase_sum_ns[i].fetch_add(rc.phase_ns[i], std::memory_order_relaxed);
    if (rc.phase_ns[i] != 0) s.phase_hist_ns[i].record(rc.phase_ns[i]);
  }
  offer_worst(s, rc, total_ns);
}

void MetricsRegistry::offer_worst(ReqLevelStats& s, const ReqContext& rc,
                                  std::uint64_t total_ns) {
  // Racy floor check first so the common (fast) request never takes the
  // lock once the reservoir is warm.
  if (s.worst_n.load(std::memory_order_relaxed) >= kWorstK &&
      total_ns <= s.worst_floor_ns.load(std::memory_order_relaxed)) {
    return;
  }
  LockGuard<SpinLock> g(s.worst_mu);
  const int n = s.worst_n.load(std::memory_order_relaxed);
  int slot = -1;
  if (n < kWorstK) {
    slot = n;
    s.worst_n.store(n + 1, std::memory_order_relaxed);
  } else {
    std::uint64_t min_total = UINT64_MAX;
    for (int i = 0; i < kWorstK; ++i) {
      const ReqContext& w = s.worst[i];
      const std::uint64_t t = w.end_ns - w.begin_ns;
      if (t < min_total) {
        min_total = t;
        slot = i;
      }
    }
    if (total_ns <= min_total) return;  // lost the race to a slower peer
  }
  s.worst[slot] = rc;
  const int filled = s.worst_n.load(std::memory_order_relaxed);
  if (filled >= kWorstK) {
    std::uint64_t floor = UINT64_MAX;
    for (int i = 0; i < filled; ++i) {
      const ReqContext& w = s.worst[i];
      floor = floor < w.end_ns - w.begin_ns ? floor : w.end_ns - w.begin_ns;
    }
    s.worst_floor_ns.store(floor, std::memory_order_relaxed);
  }
}

MetricsRegistry::SpLevelStats& MetricsRegistry::sp_level_mut(int level) {
  std::atomic<SpLevelStats*>& slot = sp_levels_[level];
  SpLevelStats* s = slot.load(std::memory_order_acquire);
  if (s == nullptr) {
    auto* fresh = new SpLevelStats();
    if (slot.compare_exchange_strong(s, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      s = fresh;
    } else {
      delete fresh;  // another recorder won; s holds the winner
    }
  }
  return *s;
}

void MetricsRegistry::record_parallelism(int level, std::uint64_t req_id,
                                         std::uint64_t work_ns,
                                         std::uint64_t span_ns,
                                         std::uint64_t bspan_ns) {
  if (!in_range(level) || span_ns == 0) return;
  // NO work >= span clamp: span counts I/O WALL waits (the serial floor)
  // while work counts only task CPU, so an I/O-bound request genuinely has
  // parallelism below 1 — that's the signal, not skew.
  if (bspan_ns < span_ns) bspan_ns = span_ns;  // burden only adds
  SpLevelStats& s = sp_level_mut(level);
  const std::uint64_t par_milli = work_ns * 1000 / span_ns;
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.work_ns.record(work_ns);
  s.span_ns.record(span_ns);
  s.bspan_ns.record(bspan_ns);
  s.par_milli.record(par_milli);
  sp_reqs_.fetch_add(1, std::memory_order_relaxed);
  sp_work_.fetch_add(work_ns, std::memory_order_relaxed);
  sp_span_.fetch_add(span_ns, std::memory_order_relaxed);
  offer_sp_worst(s, {req_id, work_ns, span_ns, bspan_ns, par_milli});
}

void MetricsRegistry::offer_sp_worst(SpLevelStats& s, const SpWorst& e) {
  // Racy ceiling gate: once the reservoir is full, a request at least as
  // parallel as everything retained cannot displace anyone.
  if (s.worst_n.load(std::memory_order_relaxed) >= kWorstK &&
      e.par_milli >= s.worst_ceil_milli.load(std::memory_order_relaxed)) {
    return;
  }
  LockGuard<SpinLock> g(s.worst_mu);
  const int n = s.worst_n.load(std::memory_order_relaxed);
  int slot = -1;
  if (n < kWorstK) {
    slot = n;
    s.worst_n.store(n + 1, std::memory_order_relaxed);
  } else {
    std::uint64_t max_par = 0;
    for (int i = 0; i < kWorstK; ++i) {
      if (s.worst[i].par_milli >= max_par) {
        max_par = s.worst[i].par_milli;
        slot = i;
      }
    }
    if (e.par_milli >= max_par) return;  // lost to a less parallel peer
  }
  s.worst[slot] = e;
  const int filled = s.worst_n.load(std::memory_order_relaxed);
  if (filled >= kWorstK) {
    std::uint64_t ceil = 0;
    for (int i = 0; i < filled; ++i) {
      if (s.worst[i].par_milli > ceil) ceil = s.worst[i].par_milli;
    }
    s.worst_ceil_milli.store(ceil, std::memory_order_relaxed);
  }
}

std::vector<MetricsRegistry::SpWorst> MetricsRegistry::worst_parallelism(
    int level) const {
  std::vector<SpWorst> out;
  const SpLevelStats* s = sp_level(level);
  if (s == nullptr) return out;
  {
    LockGuard<SpinLock> g(s->worst_mu);
    const int n = s->worst_n.load(std::memory_order_relaxed);
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out.push_back(s->worst[i]);
  }
  std::sort(out.begin(), out.end(), [](const SpWorst& a, const SpWorst& b) {
    return a.par_milli < b.par_milli;
  });
  return out;
}

std::vector<ReqContext> MetricsRegistry::worst_requests(int level) const {
  std::vector<ReqContext> out;
  const ReqLevelStats* s = req_level(level);
  if (s == nullptr) return out;
  {
    LockGuard<SpinLock> g(s->worst_mu);
    const int n = s->worst_n.load(std::memory_order_relaxed);
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out.push_back(s->worst[i]);
  }
  std::sort(out.begin(), out.end(),
            [](const ReqContext& a, const ReqContext& b) {
              return a.end_ns - a.begin_ns > b.end_ns - b.begin_ns;
            });
  return out;
}

bool MetricsRegistry::PerLevel::any_activity() const noexcept {
  for (const auto& c : counts) {
    if (c.load(std::memory_order_relaxed) != 0) return true;
  }
  return promptness_ns.count() != 0 || aging_ns.count() != 0;
}

std::uint64_t MetricsRegistry::counter_total(EventKind k) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& l : levels_) {
    sum += l.counts[static_cast<int>(k)].load(std::memory_order_relaxed);
  }
  return sum;
}

void MetricsRegistry::merge_from(const MetricsRegistry& o) {
  const int n = num_levels_ < o.num_levels_ ? num_levels_ : o.num_levels_;
  for (int level = 0; level < n; ++level) {
    for (int k = 0; k < static_cast<int>(EventKind::kCount); ++k) {
      levels_[level].counts[k].fetch_add(
          o.levels_[level].counts[k].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    levels_[level].promptness_ns.merge(o.levels_[level].promptness_ns);
    levels_[level].aging_ns.merge(o.levels_[level].aging_ns);
  }
  for (int s = 0; s < static_cast<int>(IoStat::kCount); ++s) {
    io_[s].fetch_add(o.io_[s].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  for (int g = 0; g < static_cast<int>(IoGauge::kCount); ++g) {
    io_gauges_[g].fetch_add(o.io_gauges_[g].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  }
  // Watchdog gauges are point-in-time mirrors of ONE sampler's latest
  // snapshot; summing them across registries would be meaningless, so
  // merge_from leaves them alone.
  for (int level = 0; level < n; ++level) {
    const ReqLevelStats* src = o.req_level(level);
    if (src == nullptr) continue;
    ReqLevelStats& dst = req_level_mut(level);
    dst.count.fetch_add(src->count.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    dst.total_ns.merge(src->total_ns);
    for (int i = 0; i < kReqPhaseCount; ++i) {
      dst.phase_hist_ns[i].merge(src->phase_hist_ns[i]);
      dst.phase_sum_ns[i].fetch_add(
          src->phase_sum_ns[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    // Re-offer the source's retained worst timelines to our reservoir
    // (reservoir only; counters and histograms were summed above).
    for (const ReqContext& rc : o.worst_requests(level)) {
      offer_worst(dst, rc, rc.end_ns - rc.begin_ns);
    }
  }
  for (int level = 0; level < n; ++level) {
    const SpLevelStats* src = o.sp_level(level);
    if (src == nullptr) continue;
    SpLevelStats& dst = sp_level_mut(level);
    dst.count.fetch_add(src->count.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    dst.work_ns.merge(src->work_ns);
    dst.span_ns.merge(src->span_ns);
    dst.bspan_ns.merge(src->bspan_ns);
    dst.par_milli.merge(src->par_milli);
    for (const SpWorst& e : o.worst_parallelism(level)) {
      offer_sp_worst(dst, e);
    }
  }
  sp_reqs_.fetch_add(o.sp_reqs_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  sp_work_.fetch_add(o.sp_work_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  sp_span_.fetch_add(o.sp_span_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

void MetricsRegistry::reset() {
  for (auto& l : levels_) {
    for (auto& c : l.counts) c.store(0, std::memory_order_relaxed);
    l.pending_since_ns.store(0, std::memory_order_relaxed);
    l.promptness_ns.reset();
    l.aging_ns.reset();
  }
  for (auto& c : io_) c.store(0, std::memory_order_relaxed);
  for (auto& g : io_gauges_) g.store(0, std::memory_order_relaxed);
  for (auto& g : wd_) g.store(0, std::memory_order_relaxed);
  for (auto& slot : req_levels_) {
    ReqLevelStats* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    s->count.store(0, std::memory_order_relaxed);
    s->total_ns.reset();
    for (int i = 0; i < kReqPhaseCount; ++i) {
      s->phase_hist_ns[i].reset();
      s->phase_sum_ns[i].store(0, std::memory_order_relaxed);
    }
    LockGuard<SpinLock> g(s->worst_mu);
    s->worst_n.store(0, std::memory_order_relaxed);
    s->worst_floor_ns.store(0, std::memory_order_relaxed);
  }
  for (auto& slot : sp_levels_) {
    SpLevelStats* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    s->count.store(0, std::memory_order_relaxed);
    s->work_ns.reset();
    s->span_ns.reset();
    s->bspan_ns.reset();
    s->par_milli.reset();
    LockGuard<SpinLock> g(s->worst_mu);
    s->worst_n.store(0, std::memory_order_relaxed);
    s->worst_ceil_milli.store(0, std::memory_order_relaxed);
  }
  sp_reqs_.store(0, std::memory_order_relaxed);
  sp_work_.store(0, std::memory_order_relaxed);
  sp_span_.store(0, std::memory_order_relaxed);
}

void MetricsRegistry::reset_worst() {
  for (auto& slot : req_levels_) {
    ReqLevelStats* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    LockGuard<SpinLock> g(s->worst_mu);
    s->worst_n.store(0, std::memory_order_relaxed);
    s->worst_floor_ns.store(0, std::memory_order_relaxed);
  }
  for (auto& slot : sp_levels_) {
    SpLevelStats* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    LockGuard<SpinLock> g(s->worst_mu);
    s->worst_n.store(0, std::memory_order_relaxed);
    s->worst_ceil_milli.store(0, std::memory_order_relaxed);
  }
}

std::string MetricsRegistry::text(const std::string& prefix,
                                  const std::string& eol) const {
  std::string out;
  const StatLines st(out, prefix, eol);
  for (int level = 0; level < num_levels_; ++level) {
    const PerLevel& l = levels_[level];
    if (!l.any_activity()) continue;
    const StatLines lv = st.scoped("l" + std::to_string(level) + "_");
    lv.add("steals", counter(EventKind::kSteal, level));
    lv.add("mugs", counter(EventKind::kMug, level));
    lv.add("abandons", counter(EventKind::kAbandon, level));
    lv.add("resumes", counter(EventKind::kResume, level));
    lv.add("suspends", counter(EventKind::kSuspend, level));
    for (const auto& [name, h] : {std::pair{"prompt", &l.promptness_ns},
                                  std::pair{"aging", &l.aging_ns}}) {
      if (h->count() == 0) continue;
      const std::string n = name;
      lv.add(n + "_count", h->count());
      lv.add(n + "_p50_us", h->percentile_ns(0.5) / 1000);
      lv.add(n + "_p99_us", h->percentile_ns(0.99) / 1000);
      lv.add(n + "_max_us", h->max_ns() / 1000);
    }
    // The request-latency group (req_*) is latency_stats_text's.
    if (const SpLevelStats* sp = sp_level(level);
        sp != nullptr && sp->span_ns.count() != 0) {
      lv.add("par_count", sp->count.load(std::memory_order_relaxed));
      lv.add("work_p50_us", sp->work_ns.percentile_ns(0.5) / 1000);
      lv.add("span_p50_us", sp->span_ns.percentile_ns(0.5) / 1000);
      lv.add("bspan_p50_us", sp->bspan_ns.percentile_ns(0.5) / 1000);
      lv.add("par_p50_milli", sp->par_milli.percentile_ns(0.5));
      lv.add("par_p10_milli", sp->par_milli.percentile_ns(0.1));
    }
  }
  const StatLines io = st.scoped("io_");
  for (int s = 0; s < static_cast<int>(IoStat::kCount); ++s) {
    const std::uint64_t v = io_[s].load(std::memory_order_relaxed);
    if (v != 0) io.add(io_stat_name(static_cast<IoStat>(s)), v);
  }
  for (int g = 0; g < static_cast<int>(IoGauge::kCount); ++g) {
    const std::int64_t v = io_gauges_[g].load(std::memory_order_relaxed);
    if (v != 0) io.add(io_gauge_name(static_cast<IoGauge>(g)), v);
  }
  // Watchdog gauges render only once a sampler has written them.
  if (wd_gauge(WdGauge::kSamples) != 0) {
    const StatLines wd = st.scoped("wd_");
    for (int g = 0; g < static_cast<int>(WdGauge::kCount); ++g) {
      wd.add(wd_gauge_name(static_cast<WdGauge>(g)),
             wd_[g].load(std::memory_order_relaxed));
    }
  }
  return out;
}

}  // namespace icilk::obs
