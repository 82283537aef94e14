#include "obs/exposition.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/spanprof.hpp"

namespace icilk::obs {

namespace {

constexpr double kQuantiles[] = {0.5, 0.9, 0.99};

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string level_label(int level) {
  return "level=\"" + std::to_string(level) + "\"";
}

/// ns -> us, and the par_milli fixed point -> its ratio.
double thousandths(std::uint64_t v) { return static_cast<double>(v) / 1e3; }

/// One member per (name, q): `h`'s q-quantile in thousandths.
void quantiles(JsonWriter& w, const load::Histogram& h, int digits,
               std::initializer_list<std::pair<const char*, double>> qs) {
  for (const auto& [name, q] : qs) {
    w.fixed(name, thousandths(h.percentile_ns(q)), digits);
  }
}

/// Emits one Prometheus summary family from a histogram: quantile series
/// plus _sum/_count. `labels` is the non-quantile label set ("level=\"1\""
/// or "level=\"1\",phase=\"queueing\""), without braces.
void summary_series(std::string& out, const char* name,
                    const std::string& labels, const load::Histogram& h,
                    std::uint64_t sum_ns) {
  for (const double q : kQuantiles) {
    appendf(out, "%s{%s,quantile=\"%g\"} %.9f\n", name, labels.c_str(), q,
            ns_to_s(h.percentile_ns(q)));
  }
  appendf(out, "%s_sum{%s} %.9f\n", name, labels.c_str(), ns_to_s(sum_ns));
  appendf(out, "%s_count{%s} %" PRIu64 "\n", name, labels.c_str(),
          h.count());
}

std::uint64_t hist_sum_ns(const load::Histogram& h) {
  // mean * count recovers the exact recorded sum (mean_ns is sum/count).
  return static_cast<std::uint64_t>(h.mean_ns() *
                                    static_cast<double>(h.count()));
}

}  // namespace

std::string prometheus_text(const MetricsRegistry& m, const TraceSink* sink,
                            const std::string& extra) {
  std::string out;
  out.reserve(4096);

  // Scheduler event counters, by level and kind.
  appendf(out,
          "# HELP icilk_events_total Scheduler events by priority level.\n"
          "# TYPE icilk_events_total counter\n");
  static constexpr EventKind kCounterKinds[] = {
      EventKind::kSteal,   EventKind::kMug,    EventKind::kAbandon,
      EventKind::kSuspend, EventKind::kResume,
  };
  for (int level = 0; level < m.num_levels(); ++level) {
    for (const EventKind k : kCounterKinds) {
      const std::uint64_t v = m.counter(k, level);
      if (v == 0) continue;
      appendf(out, "icilk_events_total{level=\"%d\",kind=\"%s\"} %" PRIu64
              "\n", level, event_name(k), v);
    }
  }

  // Request end-to-end latency and per-phase attribution.
  appendf(out,
          "# HELP icilk_request_latency_seconds End-to-end request latency "
          "by priority level.\n"
          "# TYPE icilk_request_latency_seconds summary\n");
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::ReqLevelStats* r = m.req_level(level);
    if (r == nullptr || r->total_ns.count() == 0) continue;
    summary_series(out, "icilk_request_latency_seconds", level_label(level),
                   r->total_ns, hist_sum_ns(r->total_ns));
  }
  appendf(out,
          "# HELP icilk_request_phase_seconds Request time attributed to "
          "each lifecycle phase (see DESIGN.md).\n"
          "# TYPE icilk_request_phase_seconds summary\n");
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::ReqLevelStats* r = m.req_level(level);
    if (r == nullptr || r->total_ns.count() == 0) continue;
    for (int p = 0; p < kReqPhaseCount; ++p) {
      const std::string labels = level_label(level) + ",phase=\"" +
                                 req_phase_name(static_cast<ReqPhase>(p)) +
                                 "\"";
      summary_series(
          out, "icilk_request_phase_seconds", labels, r->phase_hist_ns[p],
          r->phase_sum_ns[p].load(std::memory_order_relaxed));
    }
  }

  // Work/span parallelism (obs/spanprof.hpp), when the profiler recorded
  // any requests.
  {
    bool any_sp = false;
    for (int level = 0; level < m.num_levels(); ++level) {
      const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
      if (s != nullptr && s->span_ns.count() != 0) {
        any_sp = true;
        break;
      }
    }
    if (any_sp) {
      struct Fam {
        const char* name;
        const char* help;
        const load::Histogram MetricsRegistry::SpLevelStats::* hist;
      };
      static constexpr Fam kFams[] = {
          {"icilk_request_work_seconds",
           "Per-request total task CPU time (T1).",
           &MetricsRegistry::SpLevelStats::work_ns},
          {"icilk_request_span_seconds",
           "Per-request critical path (Tinf), the serial floor.",
           &MetricsRegistry::SpLevelStats::span_ns},
          {"icilk_request_burdened_span_seconds",
           "Critical path including measured scheduler overhead.",
           &MetricsRegistry::SpLevelStats::bspan_ns},
      };
      for (const Fam& f : kFams) {
        appendf(out, "# HELP %s %s\n# TYPE %s summary\n", f.name, f.help,
                f.name);
        for (int level = 0; level < m.num_levels(); ++level) {
          const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
          if (s == nullptr || s->span_ns.count() == 0) continue;
          summary_series(out, f.name, level_label(level), s->*(f.hist),
                         hist_sum_ns(s->*(f.hist)));
        }
      }
      // Parallelism is a ratio, not seconds: emit the quantiles directly
      // (the histogram stores work/span x1000).
      appendf(out,
              "# HELP icilk_request_parallelism Average parallelism "
              "(work/span) per request.\n"
              "# TYPE icilk_request_parallelism summary\n");
      for (int level = 0; level < m.num_levels(); ++level) {
        const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
        if (s == nullptr || s->par_milli.count() == 0) continue;
        for (const double q : kQuantiles) {
          appendf(out,
                  "icilk_request_parallelism{level=\"%d\",quantile=\"%g\"} "
                  "%.3f\n",
                  level, q,
                  static_cast<double>(s->par_milli.percentile_ns(q)) / 1e3);
        }
        appendf(out, "icilk_request_parallelism_count{level=\"%d\"} %" PRIu64
                "\n", level, s->par_milli.count());
      }
    }
  }

  // Promptness response and aging delay (the PR 1 histograms).
  appendf(out,
          "# HELP icilk_promptness_seconds Level nonempty -> first "
          "acquisition latency.\n"
          "# TYPE icilk_promptness_seconds summary\n");
  for (int level = 0; level < m.num_levels(); ++level) {
    const load::Histogram& h = m.promptness_hist(level);
    if (h.count() == 0) continue;
    summary_series(out, "icilk_promptness_seconds", level_label(level), h,
                   hist_sum_ns(h));
  }
  appendf(out,
          "# HELP icilk_aging_seconds Deque resumable -> resumed delay.\n"
          "# TYPE icilk_aging_seconds summary\n");
  for (int level = 0; level < m.num_levels(); ++level) {
    const load::Histogram& h = m.aging_hist(level);
    if (h.count() == 0) continue;
    summary_series(out, "icilk_aging_seconds", level_label(level), h,
                   hist_sum_ns(h));
  }

  // I/O fast-path counters.
  appendf(out,
          "# HELP icilk_io_total Reactor fast-path events.\n"
          "# TYPE icilk_io_total counter\n");
  for (int s = 0; s < static_cast<int>(IoStat::kCount); ++s) {
    appendf(out, "icilk_io_total{stat=\"%s\"} %" PRIu64 "\n",
            io_stat_name(static_cast<IoStat>(s)),
            m.io_counter(static_cast<IoStat>(s)));
  }

  // Reactor instantaneous depths.
  appendf(out,
          "# HELP icilk_io_depth Reactor queue depths (armed ops, pending "
          "timers).\n"
          "# TYPE icilk_io_depth gauge\n");
  for (int g = 0; g < static_cast<int>(IoGauge::kCount); ++g) {
    appendf(out, "icilk_io_depth{queue=\"%s\"} %lld\n",
            io_gauge_name(static_cast<IoGauge>(g)),
            static_cast<long long>(m.io_gauge(static_cast<IoGauge>(g))));
  }

  // Watchdog sampled gauges + detector trip counts (only once a sampler
  // has written them; an idle registry stays quiet).
  if (m.wd_gauge(WdGauge::kSamples) != 0) {
    appendf(out,
            "# HELP icilk_watchdog Flight-recorder sampler gauges and "
            "detector trip counts.\n"
            "# TYPE icilk_watchdog gauge\n");
    for (int g = 0; g < static_cast<int>(WdGauge::kCount); ++g) {
      appendf(out, "icilk_watchdog{gauge=\"%s\"} %lld\n",
              wd_gauge_name(static_cast<WdGauge>(g)),
              static_cast<long long>(m.wd_gauge(static_cast<WdGauge>(g))));
    }
  }

  // Trace-ring overflow surfacing: silent drops would skew attribution.
  if (sink != nullptr) {
    appendf(out,
            "# HELP icilk_trace_ring_recorded_total Events ever written "
            "per trace ring.\n"
            "# TYPE icilk_trace_ring_recorded_total counter\n");
    const auto stats = sink->ring_stats();
    for (const auto& r : stats) {
      appendf(out, "icilk_trace_ring_recorded_total{ring=\"%s\"} %" PRIu64
              "\n", r.name.c_str(), r.recorded);
    }
    appendf(out,
            "# HELP icilk_trace_ring_dropped_total Events lost to ring "
            "wrap per trace ring.\n"
            "# TYPE icilk_trace_ring_dropped_total counter\n");
    for (const auto& r : stats) {
      appendf(out, "icilk_trace_ring_dropped_total{ring=\"%s\"} %" PRIu64
              "\n", r.name.c_str(), r.dropped);
    }
  }

  out += extra;
  return out;
}

std::string latency_json(const MetricsRegistry& m) {
  return json_object([&m](JsonWriter& w) {
    auto levels = w.array("levels");
    for (int level = 0; level < m.num_levels(); ++level) {
      const MetricsRegistry::ReqLevelStats* r = m.req_level(level);
      if (r == nullptr || r->total_ns.count() == 0) continue;
      auto lv = w.object();
      w.field("level", level)
          .field("count", r->count.load(std::memory_order_relaxed));
      {
        auto t = w.object("total_us");
        quantiles(w, r->total_ns, 1,
                  {{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}});
        w.fixed("max", thousandths(r->total_ns.max_ns()), 1)
            .fixed("mean", r->total_ns.mean_ns() / 1e3, 1);
      }
      {
        auto phases = w.object("phases");
        for (int p = 0; p < kReqPhaseCount; ++p) {
          const load::Histogram& h = r->phase_hist_ns[p];
          const std::uint64_t sum =
              r->phase_sum_ns[p].load(std::memory_order_relaxed);
          auto ph = w.object(req_phase_name(static_cast<ReqPhase>(p)));
          w.field("count", h.count()).fixed("sum_us", thousandths(sum), 1);
          quantiles(w, h, 1, {{"p50", 0.5}, {"p99", 0.99}});
          w.fixed("max", thousandths(h.max_ns()), 1);
        }
      }
      auto worst = w.array("worst");
      for (const ReqContext& rc : m.worst_requests(level)) {
        auto req = w.object();
        w.field("id", rc.id)
            .fixed("total_us", thousandths(rc.end_ns - rc.begin_ns), 1)
            .field("hops_dropped", rc.hops_dropped);
        auto hops = w.array("hops");
        for (std::uint32_t i = 0; i < rc.nhops; ++i) {
          const ReqHop& h = rc.hops[i];
          auto hop = w.object();
          w.fixed("t_us", thousandths(h.t_ns - rc.begin_ns), 1)
              .field("phase", req_phase_name(h.phase))
              .field("where", h.where);
        }
      }
    }
  });
}

std::string latency_stats_text(const MetricsRegistry& m,
                               const std::string& prefix,
                               const std::string& eol) {
  std::string out;
  const StatLines st(out, prefix, eol);
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::ReqLevelStats* r = m.req_level(level);
    if (r == nullptr || r->total_ns.count() == 0) continue;
    const StatLines l = st.scoped("l" + std::to_string(level) + "_");
    l.add("req_count", r->count.load(std::memory_order_relaxed))
        .add("req_p50_us", r->total_ns.percentile_ns(0.5) / 1000)
        .add("req_p99_us", r->total_ns.percentile_ns(0.99) / 1000)
        .add("req_max_us", r->total_ns.max_ns() / 1000);
    for (int p = 0; p < kReqPhaseCount; ++p) {
      const load::Histogram& h = r->phase_hist_ns[p];
      if (h.count() == 0) continue;
      const std::string pn =
          std::string("phase_") + req_phase_name(static_cast<ReqPhase>(p));
      l.add(pn + "_p50_us", h.percentile_ns(0.5) / 1000)
          .add(pn + "_p99_us", h.percentile_ns(0.99) / 1000)
          .add(pn + "_sum_us",
               r->phase_sum_ns[p].load(std::memory_order_relaxed) / 1000);
    }
    int rank = 0;
    for (const ReqContext& rc : m.worst_requests(level)) {
      std::string v = "id=" + std::to_string(rc.id) + " total_us=" +
                      std::to_string((rc.end_ns - rc.begin_ns) / 1000) +
                      " hops=";
      for (std::uint32_t i = 0; i < rc.nhops; ++i) {
        const ReqHop& h = rc.hops[i];
        if (i != 0) v += ',';
        v += req_phase_name(h.phase);
        v += '@' + std::to_string(h.where) + ":+" +
             std::to_string((h.t_ns - rc.begin_ns) / 1000) + "us";
      }
      if (rc.hops_dropped != 0) v += ",...";
      l.add("worst" + std::to_string(rank++), v);
    }
  }
  return out;
}

std::string parallelism_json(const MetricsRegistry& m) {
  return json_object([&m](JsonWriter& w) {
    w.field("compiled_in", compiled_in())
        .field("requests", m.sp_total_requests())
        .fixed("work_ms", static_cast<double>(m.sp_total_work_ns()) / 1e6, 3)
        .fixed("span_ms", static_cast<double>(m.sp_total_span_ns()) / 1e6,
               3);
    auto levels = w.array("levels");
    for (int level = 0; level < m.num_levels(); ++level) {
      const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
      if (s == nullptr || s->span_ns.count() == 0) continue;
      auto lv = w.object();
      w.field("level", level)
          .field("count", s->count.load(std::memory_order_relaxed));
      const auto summary = [&w](const char* name, const load::Histogram& h,
                                bool mean) {
        auto o = w.object(name);
        quantiles(w, h, 1, {{"p50", 0.5}, {"p99", 0.99}});
        if (mean) w.fixed("mean", h.mean_ns() / 1e3, 1);
      };
      summary("work_us", s->work_ns, true);
      summary("span_us", s->span_ns, true);
      summary("bspan_us", s->bspan_ns, false);
      {
        auto par = w.object("parallelism");
        quantiles(w, s->par_milli, 3,
                  {{"p10", 0.1}, {"p50", 0.5}, {"p90", 0.9}});
      }
      auto worst = w.array("worst");
      for (const MetricsRegistry::SpWorst& e : m.worst_parallelism(level)) {
        auto o = w.object();
        w.field("id", e.req_id).fixed("work_us", thousandths(e.work_ns), 1);
        w.fixed("span_us", thousandths(e.span_ns), 1);
        w.fixed("bspan_us", thousandths(e.bspan_ns), 1);
        w.fixed("par", thousandths(e.par_milli), 3);
      }
    }
  });
}

std::string parallelism_stats_text(const MetricsRegistry& m,
                                   const std::string& prefix,
                                   const std::string& eol) {
  std::string out;
  const StatLines st(out, prefix, eol);
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
    if (s == nullptr || s->span_ns.count() == 0) continue;
    const StatLines l = st.scoped("l" + std::to_string(level) + "_");
    l.add("par_count", s->count.load(std::memory_order_relaxed))
        .add("work_p50_us", s->work_ns.percentile_ns(0.5) / 1000)
        .add("work_p99_us", s->work_ns.percentile_ns(0.99) / 1000)
        .add("span_p50_us", s->span_ns.percentile_ns(0.5) / 1000)
        .add("span_p99_us", s->span_ns.percentile_ns(0.99) / 1000)
        .add("bspan_p50_us", s->bspan_ns.percentile_ns(0.5) / 1000)
        .add("bspan_p99_us", s->bspan_ns.percentile_ns(0.99) / 1000)
        .add("par_p10_milli", s->par_milli.percentile_ns(0.1))
        .add("par_p50_milli", s->par_milli.percentile_ns(0.5))
        .add("par_p90_milli", s->par_milli.percentile_ns(0.9));
    int rank = 0;
    for (const MetricsRegistry::SpWorst& e : m.worst_parallelism(level)) {
      l.add("leastpar" + std::to_string(rank++),
            "id=" + std::to_string(e.req_id) +
                " work_us=" + std::to_string(e.work_ns / 1000) +
                " span_us=" + std::to_string(e.span_ns / 1000) +
                " bspan_us=" + std::to_string(e.bspan_ns / 1000) +
                " par=" + format_fixed(thousandths(e.par_milli), 3));
    }
  }
  return out;
}

}  // namespace icilk::obs
