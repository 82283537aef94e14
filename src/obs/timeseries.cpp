#include "obs/timeseries.hpp"

#include <algorithm>

#include "load/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace icilk::obs {

namespace {

// The cumulative counters an epoch deltas (summed across levels).
constexpr EventKind kDeltaKinds[] = {
    EventKind::kSteal,    EventKind::kMug,        EventKind::kAbandon,
    EventKind::kResume,   EventKind::kIoSubmit,   EventKind::kIoComplete,
};

void assign_delta(TsEpoch& e, EventKind k, std::uint64_t d) {
  switch (k) {
    case EventKind::kSteal: e.steals = d; break;
    case EventKind::kMug: e.mugs = d; break;
    case EventKind::kAbandon: e.abandons = d; break;
    case EventKind::kResume: e.resumes = d; break;
    case EventKind::kIoSubmit: e.io_submits = d; break;
    case EventKind::kIoComplete: e.io_completes = d; break;
    default: break;
  }
}

}  // namespace

TimeSeries::TimeSeries(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.epoch_ms < 1) cfg_.epoch_ms = 1;
  if (cfg_.epochs < 1) cfg_.epochs = 1;
  ring_.resize(static_cast<std::size_t>(cfg_.epochs));
  epoch_open_ns_ = now_ns();
  next_due_ns_ = epoch_open_ns_ + epoch_ns();
  // Baseline the delta memory so the first epoch reports only activity
  // since construction, not since process start.
  TsEpoch discard;
  digest_latency(discard);
  digest_counters(discard);
}

std::uint64_t TimeSeries::epoch_ns() const noexcept {
  return static_cast<std::uint64_t>(cfg_.epoch_ms) * 1000000ull;
}

bool TimeSeries::due(std::uint64_t t_ns) const {
  std::lock_guard<std::mutex> lk(mu_);
  return t_ns >= next_due_ns_;
}

void TimeSeries::close_epoch(const WdSample& s) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t now = s.t_ns != 0 ? s.t_ns : now_ns();

  TsEpoch e;
  e.seq = epochs_closed_.load(std::memory_order_relaxed);
  e.t_ns = now;
  e.duration_ns = now > epoch_open_ns_ ? now - epoch_open_ns_ : 0;
  digest_latency(e);
  digest_counters(e);
  e.bitfield = s.bitfield;
  e.num_levels = s.num_levels;
  for (int p = 0; p < TsEpoch::kMaxLevels && p < WdSample::kMaxLevels; ++p) {
    e.pool_depth[p] = s.pool_depth[p];
    e.mug_depth[p] = s.mug_depth[p];
  }
  e.sleepers = s.sleepers;
  e.io_armed = s.io_armed;
  e.timers_pending = s.timers_pending;

  epoch_open_ns_ = now;
  // The deadline stays on its grid; windows the sampler slept through
  // are skipped rather than closed empty.
  while (next_due_ns_ <= now) next_due_ns_ += epoch_ns();
  ring_[ring_next_] = e;
  ring_next_ = (ring_next_ + 1) % ring_.size();
  if (ring_size_ < ring_.size()) ++ring_size_;
  epochs_closed_.fetch_add(1, std::memory_order_relaxed);
}

void TimeSeries::digest_latency(TsEpoch& e) {
  if (cfg_.metrics == nullptr) return;
  for (int p = 0; p < TsEpoch::kMaxLevels; ++p) {
    const MetricsRegistry::ReqLevelStats* st = cfg_.metrics->req_level(p);
    if (st == nullptr) continue;
    std::vector<std::uint64_t> cur = st->total_ns.bucket_counts();
    // Read after the buckets: a racing record can only raise it, and the
    // min below then falls back to the bucket edge.
    const std::uint64_t cum_max = st->total_ns.max_ns();
    std::vector<std::uint64_t> delta = cur;
    std::vector<std::uint64_t>& prev = prev_lat_[p];
    for (std::size_t i = 0; i < prev.size(); ++i) {
      if (delta[i] < prev[i]) {
        // The registry was reset(): this snapshot is the new baseline.
        delta.assign(delta.size(), 0);
        break;
      }
      delta[i] -= prev[i];
    }
    prev = std::move(cur);
    std::uint64_t n = 0;
    for (const std::uint64_t c : delta) n += c;
    if (n == 0) continue;
    auto& l = e.lat[p];
    l.count = n;
    l.p50_ns = load::Histogram::percentile_of(delta, 0.50);
    l.p99_ns = load::Histogram::percentile_of(delta, 0.99);
    l.max_ns = std::min(load::Histogram::max_edge_of(delta), cum_max);
  }
}

void TimeSeries::digest_counters(TsEpoch& e) {
  if (cfg_.metrics == nullptr) return;
  for (EventKind k : kDeltaKinds) {
    const std::uint64_t cur = cfg_.metrics->counter_total(k);
    std::uint64_t& prev = prev_counts_[static_cast<int>(k)];
    assign_delta(e, k, cur >= prev ? cur - prev : 0);
    prev = cur;
  }
  const std::uint64_t reqs = cfg_.metrics->sp_total_requests();
  const std::uint64_t work = cfg_.metrics->sp_total_work_ns();
  const std::uint64_t span = cfg_.metrics->sp_total_span_ns();
  e.sp_reqs = reqs >= prev_sp_reqs_ ? reqs - prev_sp_reqs_ : 0;
  e.sp_work_ns = work >= prev_sp_work_ ? work - prev_sp_work_ : 0;
  e.sp_span_ns = span >= prev_sp_span_ ? span - prev_sp_span_ : 0;
  prev_sp_reqs_ = reqs;
  prev_sp_work_ = work;
  prev_sp_span_ = span;
}

std::vector<TsEpoch> TimeSeries::epochs() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TsEpoch> out;
  out.reserve(ring_size_);
  const std::size_t cap = ring_.size();
  const std::size_t first = (ring_next_ + cap - ring_size_) % cap;
  for (std::size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(first + i) % cap]);
  }
  return out;
}

TsEpoch TimeSeries::latest() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_size_ == 0) return TsEpoch{};
  const std::size_t cap = ring_.size();
  return ring_[(ring_next_ + cap - 1) % cap];
}

namespace {

void write_epoch(JsonWriter& w, const TsEpoch& e) {
  auto o = w.object();
  w.field("seq", e.seq).field("t_ns", e.t_ns);
  w.field("duration_ns", e.duration_ns);
  w.field("steals", e.steals).field("mugs", e.mugs);
  w.field("abandons", e.abandons).field("resumes", e.resumes);
  w.field("io_submits", e.io_submits).field("io_completes", e.io_completes);
  w.field("sp_reqs", e.sp_reqs).field("sp_work_ns", e.sp_work_ns);
  w.field("sp_span_ns", e.sp_span_ns);
  w.field("sleepers", e.sleepers).field("io_armed", e.io_armed);
  w.field("timers_pending", e.timers_pending).hex("bitfield", e.bitfield);
  auto levels = w.object("levels");
  for (int p = 0; p < TsEpoch::kMaxLevels; ++p) {
    const auto& l = e.lat[p];
    if (l.count == 0 && e.pool_depth[p] == 0 && e.mug_depth[p] == 0) {
      continue;  // most of the 64 levels are silent; keep documents small
    }
    auto lv = w.object(std::to_string(p));
    w.field("count", l.count).field("p50_ns", l.p50_ns);
    w.field("p99_ns", l.p99_ns).field("max_ns", l.max_ns);
    w.field("pool", e.pool_depth[p]).field("mug", e.mug_depth[p]);
  }
}

std::string render(std::string_view scheduler, int epoch_ms, int capacity,
                   std::uint64_t closed, const std::vector<TsEpoch>& eps) {
  return json_object([&](JsonWriter& w) {
    w.field("timeseries", 1).field("scheduler", scheduler);
    w.field("epoch_ms", epoch_ms).field("capacity", capacity);
    w.field("epochs_closed", closed);
    auto arr = w.array("epochs");
    for (const TsEpoch& e : eps) write_epoch(w, e);
  }) + '\n';
}

}  // namespace

std::string TimeSeries::json(std::size_t max_epochs) const {
  std::vector<TsEpoch> eps = epochs();
  if (max_epochs != 0 && eps.size() > max_epochs) {
    // Keep the NEWEST max_epochs (the ring is oldest-first).
    eps.erase(eps.begin(),
              eps.begin() + static_cast<std::ptrdiff_t>(eps.size() -
                                                        max_epochs));
  }
  return render(cfg_.scheduler, cfg_.epoch_ms, cfg_.epochs, epochs_closed(),
                eps);
}

std::string TimeSeries::disabled_json(std::string_view scheduler) {
  return render(scheduler, 0, 0, 0, {});
}

std::string TimeSeries::stats_text(const std::string& prefix,
                                   const std::string& eol) const {
  const TsEpoch e = latest();
  std::string out;
  const StatLines st(out, prefix + "ts_", eol);
  st.add("epoch_ms", cfg_.epoch_ms).add("epochs_closed", epochs_closed());
  st.add("last_duration_us", e.duration_ns / 1000);
  st.add("last_steals", e.steals).add("last_mugs", e.mugs);
  st.add("last_abandons", e.abandons).add("last_resumes", e.resumes);
  st.add("last_io_submits", e.io_submits);
  st.add("last_io_completes", e.io_completes).add("last_sp_reqs", e.sp_reqs);
  st.add("last_sp_work_us", e.sp_work_ns / 1000);
  st.add("last_sp_span_us", e.sp_span_ns / 1000);
  st.add("last_sleepers", e.sleepers).add("last_io_armed", e.io_armed);
  st.add("last_timers_pending", e.timers_pending);
  for (int p = 0; p < TsEpoch::kMaxLevels; ++p) {
    const auto& l = e.lat[p];
    if (l.count == 0) continue;
    const StatLines lv = st.scoped("l" + std::to_string(p) + "_");
    lv.add("count", l.count).add("p50_us", l.p50_ns / 1000);
    lv.add("p99_us", l.p99_ns / 1000).add("max_us", l.max_ns / 1000);
  }
  return out;
}

}  // namespace icilk::obs
