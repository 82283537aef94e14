#include "common.hpp"

#include <sched.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "fiber/fiber.hpp"

namespace perfbench {

namespace {

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Exact percentile (nearest rank) of `v`; reorders `v`.
double percentile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

std::uint64_t beyond(std::uint64_t n, double q) {
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

}  // namespace

std::uint64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

LatencySummary summarize(std::vector<std::uint64_t> samples_ns) {
  LatencySummary s;
  s.n = samples_ns.size();
  s.p50_us = percentile(samples_ns, 0.50) / 1e3;
  s.p90_us = percentile(samples_ns, 0.90) / 1e3;
  s.p99_us = percentile(samples_ns, 0.99) / 1e3;
  s.p999_us = percentile(samples_ns, 0.999) / 1e3;
  s.beyond_p99 = beyond(s.n, 0.99);
  s.beyond_p999 = beyond(s.n, 0.999);
  return s;
}

LatencySummary summarize(const icilk::load::Histogram& h) {
  LatencySummary s;
  s.n = h.count();
  s.p50_us = static_cast<double>(h.percentile_ns(0.50)) / 1e3;
  s.p90_us = static_cast<double>(h.percentile_ns(0.90)) / 1e3;
  s.p99_us = static_cast<double>(h.percentile_ns(0.99)) / 1e3;
  s.p999_us = static_cast<double>(h.percentile_ns(0.999)) / 1e3;
  s.beyond_p99 = beyond(s.n, 0.99);
  s.beyond_p999 = beyond(s.n, 0.999);
  return s;
}

int slice_count(const Options& o) {
  return std::max(1, static_cast<int>(std::lround(o.seconds * 1e9 / kSliceNs)));
}

SliceClock::SliceClock(std::uint64_t wait)
    : start_ns(mono_ns()),
      cpu_ns(process_cpu_ns()),
      load_cpu_ns(thread_cpu_ns()),
      wait_ns(wait) {}

Slice SliceClock::finish(std::uint64_t wait, std::size_t ops,
                         LatencySummary lat) const {
  Slice s;
  s.secs = static_cast<double>(mono_ns() - start_ns) / 1e9;
  s.server_cpu_ns = static_cast<double>((process_cpu_ns() - cpu_ns) -
                                        (thread_cpu_ns() - load_cpu_ns));
  s.ops = static_cast<double>(ops);
  s.wait_ns = static_cast<double>(wait - wait_ns);
  s.lat = lat;
  return s;
}

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
double median_over(const std::vector<Slice>& s, std::size_t from,
                   std::size_t to, F f) {
  std::vector<double> v;
  for (std::size_t i = from; i < to; ++i) v.push_back(f(s[i]));
  return median(std::move(v));
}

}  // namespace

void add_end_to_end(Result& r, double setup_s, const std::vector<Slice>& s,
                    const LatencySummary& pooled, const char* workload) {
  const std::size_t n = s.size();
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", median_over(s, 0, n, [](const Slice& x) { return x.ops / x.secs; }),
        "ops/s");
  r.add("p50_us", median_over(s, 0, n, [](const Slice& x) { return x.lat.p50_us; }), "us");
  r.add("p90_us", median_over(s, 0, n, [](const Slice& x) { return x.lat.p90_us; }), "us");
  r.add("cpu_us_per_op",
        median_over(s, 0, n, [](const Slice& x) { return x.server_cpu_ns / 1e3 / x.ops; }),
        "us");
  std::fprintf(stderr,
               "%s: %zu slices, pooled n=%llu p50=%.1fus p99=%.1fus (%llu "
               "beyond) p99.9=%.1fus (%llu beyond); ops/s per slice:",
               workload, n, static_cast<unsigned long long>(pooled.n),
               pooled.p50_us, pooled.p99_us,
               static_cast<unsigned long long>(pooled.beyond_p99),
               pooled.p999_us,
               static_cast<unsigned long long>(pooled.beyond_p999));
  for (const Slice& x : s) std::fprintf(stderr, " %.0f", x.ops / x.secs);
  std::fprintf(stderr, "\n");
}

double add_traced(Result& r, const std::vector<Slice>& s, int traced_from,
                  const LatencySummary& lat) {
  const auto t = static_cast<std::size_t>(traced_from);
  double ops = 0, secs = 0, wait = 0;
  for (std::size_t i = t; i < s.size(); ++i) {
    ops += s[i].ops;
    secs += s[i].secs;
    wait += s[i].wait_ns / 1e9;
  }
  r.add("load.cpu_frac", 1.0 - wait / secs, "ratio");
  r.add("tail.p99_us", lat.p99_us, "us");
  r.add("tail.p999_us", lat.p999_us, "us");
  r.add("tail.n_beyond_p99", static_cast<double>(lat.beyond_p99), "count");
  r.add("tail.n_beyond_p999", static_cast<double>(lat.beyond_p999), "count");
  const auto rate = [](const Slice& x) { return x.ops / x.secs; };
  const double base = median_over(s, 0, t, rate);
  const double traced = median_over(s, t, s.size(), rate);
  r.add("trace.ops_overhead_pct", 100.0 * (base - traced) / base, "%");
  std::fprintf(stderr, "ops/s untraced %.0f, traced %.0f\n", base, traced);
  return ops;
}

void write_traces(const char* workload, const SpanLog& spans,
                  icilk::Runtime& rt) {
  ::mkdir(".bench_out", 0755);
  const std::string base = std::string(".bench_out/") + workload;
  spans.write_chrome(base + ".spans.trace.json");
  rt.trace_sink().write_chrome_trace_file(base + ".runtime.trace.json");
}

CoreSnap core_snap(icilk::Runtime& rt) {
  CoreSnap s;
  s.stats = rt.stats_snapshot();
  const auto& m = rt.metrics();
  s.suspends = m.counter_total(icilk::obs::EventKind::kSuspend);
  for (int l = 0; l < m.num_levels(); ++l) {
    const auto* rl = m.req_level(l);
    if (rl == nullptr) continue;
    s.req_count += rl->count.load(std::memory_order_relaxed);
    for (int p = 0; p < icilk::obs::kReqPhaseCount; ++p) {
      const std::uint64_t v = rl->phase_sum_ns[p].load(std::memory_order_relaxed);
      s.phase_ns[p] += v;
      s.req_ns += v;
    }
  }
  return s;
}

void add_core_metrics(Result& r, const CoreSnap& a, const CoreSnap& b,
                      double ops) {
  const auto& x = a.stats;
  const auto& y = b.stats;
  const auto per_op_us = [&](double s) { return s * 1e6 / ops; };
  const auto per_kop = [&](std::uint64_t d) {
    return static_cast<double>(d) * 1e3 / ops;
  };
  r.add("core.work_us_per_op", per_op_us(y.work_s - x.work_s), "us");
  r.add("core.sched_us_per_op", per_op_us(y.sched_s - x.sched_s), "us");
  r.add("core.waste_us_per_op", per_op_us(y.waste_s - x.waste_s), "us");
  r.add("core.steals_per_kop", per_kop(y.steals - x.steals), "1/kop");
  r.add("core.mugs_per_kop", per_kop(y.mugs - x.mugs), "1/kop");
  r.add("core.abandons_per_kop", per_kop(y.abandons - x.abandons), "1/kop");
  r.add("core.sleeps_per_kop", per_kop(y.sleeps - x.sleeps), "1/kop");
  r.add("core.suspends_per_kop", per_kop(b.suspends - a.suspends), "1/kop");
  const double got = static_cast<double>((y.steals - x.steals) + (y.mugs - x.mugs));
  const double tried = got + static_cast<double>(y.failed_probes - x.failed_probes);
  r.add("core.probe_success_ratio", tried > 0 ? got / tried : 0, "ratio");
  static const char* kPhase[] = {"core.queueing_us", "core.executing_us",
                                 "core.runnable_us", "core.suspended_io_us",
                                 "core.suspended_sync_us"};
  for (int p = 0; p < 5; ++p) {
    r.add(kPhase[p],
          static_cast<double>(b.phase_ns[p] - a.phase_ns[p]) / 1e3 / ops, "us");
  }
}

void check_time_accounting(Result& r, const icilk::Runtime& rt,
                           const icilk::StatsSnapshot& s, double life_s) {
  const double busy = s.work_s + s.sched_s + s.waste_s;
  // 1% covers the TSC-to-seconds calibration error.
  const double limit = rt.num_workers() * life_s * 1.01;
  r.check(busy <= limit, "work+sched+waste " + std::to_string(busy) +
                             " s exceeds workers x runtime life " +
                             std::to_string(limit) + " s");
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                  i ? "," : "", s.name,
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id));
    os << buf;
  }
  os << "],\"otherData\":{\"dropped_spans\":" << dropped_ << "}}\n";
  return static_cast<bool>(os);
}

double price_fiber_switch_ns(SpanLog& spans) {
  using icilk::Context;
  using icilk::Fiber;
  Context main_ctx;
  Fiber fib{icilk::Stack(64 * 1024)};
  fib.prepare(
      [&](Fiber& f) {
        for (;;) icilk::switch_context(f.context(), main_ctx);
      },
      [] {});
  constexpr std::uint64_t kIters = 200000;
  // Each call is a switch into the fiber and one back.
  return price_ns(spans, "fiber.switch", kIters, [&](std::uint64_t) {
           icilk::switch_context(main_ctx, fib.context());
         }) /
         2;
}

CpuSplit::CpuSplit() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  if (cpus_.size() < 2) return;
  CPU_CLR(cpus_.back(), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuSplit::load_cpu() const {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_.back(), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace perfbench
