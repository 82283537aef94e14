// Shared pieces of the end-to-end benchmark: run options, the result the
// binary prints, clocks, exact percentiles, and the in-memory span log of
// the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "load/histogram.hpp"

namespace perfbench {

class SpanLog;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t t0_ns = 0;  ///< CLOCK_MONOTONIC at process start
};

/// Unmeasured closed-loop time before the window.
inline constexpr std::uint64_t kWarmupNs = 1'000'000'000;
/// The window is cut into slices of this length; each slice ends by
/// draining the operations in flight, and the end-to-end metrics are
/// medians over slices, so a short disturbance on the host moves one
/// slice rather than the run.
inline constexpr std::uint64_t kSliceNs = 1'000'000'000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports. `checks` collects every failed correctness
/// check by description; the run is correct when it stays empty.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> checks;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) checks.push_back(what);
  }
};

/// CLOCK_MONOTONIC, the clock steady_clock reads on Linux.
std::uint64_t mono_ns();
/// CPU time of the whole process / of the calling thread.
std::uint64_t process_cpu_ns();
std::uint64_t thread_cpu_ns();

/// Latency summary the workloads report from.
struct LatencySummary {
  std::uint64_t n = 0;
  double p50_us = 0, p90_us = 0, p99_us = 0, p999_us = 0;
  std::uint64_t beyond_p99 = 0, beyond_p999 = 0;
};
LatencySummary summarize(std::vector<std::uint64_t> samples_ns);
LatencySummary summarize(const icilk::load::Histogram& h);

/// One slice of the measured window.
struct Slice {
  double secs = 0;          ///< from its first send to its last reply
  double ops = 0;           ///< operations completed
  double server_cpu_ns = 0; ///< process CPU minus the load thread's
  double wait_ns = 0;       ///< load thread time spent waiting for replies
  LatencySummary lat;
};

/// Slices in a window of `o.seconds` (at least one).
int slice_count(const Options& o);

/// Clocks read at a slice's start; finish() reads them again.
struct SliceClock {
  explicit SliceClock(std::uint64_t wait_ns);
  Slice finish(std::uint64_t wait_ns, std::size_t ops, LatencySummary lat) const;
  std::uint64_t start_ns, cpu_ns, load_cpu_ns, wait_ns;
};

/// Adds the end-to-end metrics (medians over slices) and prints the tail
/// of the pooled latencies to stderr.
void add_end_to_end(Result& r, double setup_s, const std::vector<Slice>& s,
                    const LatencySummary& pooled, const char* workload);

/// Adds the load.*, tail.* and trace.* per-layer metrics: slices before
/// `traced_from` ran untraced, the rest traced; `lat` pools the traced
/// latencies. Returns the operations of the traced slices.
double add_traced(Result& r, const std::vector<Slice>& s, int traced_from,
                  const LatencySummary& lat);

/// Writes the traced run's spans and the runtime's event trace to
/// .bench_out/ under the working directory.
void write_traces(const char* workload, const SpanLog& spans,
                  icilk::Runtime& rt);

/// Scheduler counters and reqtrace phase sums at one instant, so a
/// window's deltas can be priced per operation.
struct CoreSnap {
  icilk::StatsSnapshot stats;
  std::uint64_t suspends = 0;
  std::uint64_t req_count = 0;
  std::uint64_t req_ns = 0;
  std::uint64_t phase_ns[5] = {};
};
CoreSnap core_snap(icilk::Runtime& rt);

/// Adds the core.* per-layer metrics for the window between `a` and `b`
/// over `ops` completed operations.
void add_core_metrics(Result& r, const CoreSnap& a, const CoreSnap& b,
                      double ops);

/// The runtime's busy accounting: every worker's work, sched and waste
/// intervals are disjoint and lie inside the runtime's life, so their sum
/// cannot exceed workers x `life_s` (the time since just before the
/// runtime was built).
void check_time_accounting(Result& r, const icilk::Runtime& rt,
                           const icilk::StatsSnapshot& s, double life_s);

/// Spans the traced run records around its calls into the program: a
/// name, a start and end on the monotonic clock, and an id shared by the
/// spans of one request. Kept in memory and written as Chrome trace JSON.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 1 << 16) { spans_.reserve(cap); }
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t id) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({name, start_ns, end_ns, id});
    } else {
      ++dropped_;
    }
  }
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns, end_ns, id;
  };
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Times `iters` calls of `fn` and returns ns per call; the whole loop is
/// one span named `name`.
template <typename F>
double price_ns(SpanLog& spans, const char* name, std::uint64_t iters, F fn) {
  const std::uint64_t t0 = mono_ns();
  for (std::uint64_t i = 0; i < iters; ++i) fn(i);
  const std::uint64_t t1 = mono_ns();
  spans.record(name, t0, t1, 0);
  return static_cast<double>(t1 - t0) / static_cast<double>(iters);
}

/// Per-layer pricing shared by several workloads.
double price_fiber_switch_ns(SpanLog& spans);

/// Splits the CPUs this process may use: the calling thread, and every
/// thread it starts until load_cpu() is called, get all but the last; the
/// last is kept for the load thread. With fewer than two CPUs nothing is
/// pinned.
class CpuSplit {
 public:
  CpuSplit();
  /// Moves the calling thread onto the load CPU.
  void load_cpu() const;

 private:
  std::vector<int> cpus_;
};

int run_kv(const Options& o, bool large, Result& r);
int run_email(const Options& o, Result& r);

}  // namespace perfbench
