// Shared infrastructure for the figure-reproduction benches.
//
// Every bench binary prints self-describing rows (scheduler, load point,
// percentiles) so EXPERIMENTS.md can quote them directly. Trials are kept
// short (seconds) because this reproduction runs on a single core — see
// DESIGN.md for how that scales the paper's load points down.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached/icilk_server.hpp"
#include "apps/memcached/pthread_server.hpp"
#include "core/adaptive_scheduler.hpp"
#include "core/api.hpp"
#include "core/multiqueue_scheduler.hpp"
#include "core/prompt_scheduler.hpp"
#include "load/histogram.hpp"
#include "load/mc_client.hpp"
#include "load/openloop.hpp"

namespace icilk::bench {

using SchedFactory = std::function<std::unique_ptr<Scheduler>()>;

struct SchedConfig {
  std::string name;    ///< row label, e.g. "adaptive(q=2ms,u=0.5)"
  std::string family;  ///< "prompt", "adaptive", "adaptive+aging", ...
  SchedFactory make;
};

inline SchedConfig prompt_config() {
  return {"prompt", "prompt",
          [] { return std::make_unique<PromptScheduler>(); }};
}

inline SchedConfig multiqueue_config() {
  return {"multiqueue", "multiqueue",
          [] { return std::make_unique<MultiQueueScheduler>(); }};
}

/// `--scheduler=NAME` (or ICILK_SCHEDULER) as a row FILTER for the figure
/// benches: empty = run every scheduler family, otherwise only rows whose
/// family matches. Lets CI run a single-scheduler leg of fig1/fig4/fig5
/// without a separate binary.
inline std::string scheduler_filter(int argc, char** argv) {
  const std::string arg = scheduler_arg(argc, argv);
  if (!arg.empty()) return arg;
  if (const char* env = ::getenv("ICILK_SCHEDULER");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return "";
}

/// True when `family` should run under the active filter. The filter
/// matches the family prefix so "adaptive:q=1000" selects the adaptive
/// rows and "multiqueue-deadline" the multiqueue ones.
inline bool scheduler_selected(const std::string& filter,
                               const std::string& family) {
  if (filter.empty()) return true;
  return filter.rfind(family, 0) == 0 || family.rfind(filter, 0) == 0;
}

/// The runtime-parameter sets swept for the Adaptive variants, mirroring
/// the paper's "N different sets of parameters" methodology.
inline std::vector<AdaptiveScheduler::Params> adaptive_param_sweep() {
  std::vector<AdaptiveScheduler::Params> sweep;
  for (const int quantum_us : {1000, 8000}) {
    for (const double thresh : {0.4, 0.8}) {
      AdaptiveScheduler::Params p;
      p.quantum_us = quantum_us;
      p.util_threshold = thresh;
      p.ramp = 1;
      sweep.push_back(p);
    }
  }
  return sweep;
}

inline std::string adaptive_label(const char* family,
                                  const AdaptiveScheduler::Params& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s(q=%dus,u=%.1f)", family, p.quantum_us,
                p.util_threshold);
  return buf;
}

inline std::vector<SchedConfig> adaptive_configs(
    AdaptiveScheduler::Variant v, const char* family,
    const std::vector<AdaptiveScheduler::Params>& sweep) {
  std::vector<SchedConfig> out;
  for (const auto& p : sweep) {
    out.push_back({adaptive_label(family, p), family,
                   [v, p] { return std::make_unique<AdaptiveScheduler>(v, p); }});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Memcached trials
// ---------------------------------------------------------------------------

struct McTrialOptions {
  double rps = 2000;
  double duration_s = 3.0;
  /// Unmeasured load run before the measured window, same rps. First-touch
  /// costs (fiber stacks, freelist fills, fd-table growth, cold branch
  /// predictors) land here instead of in the percentiles; 0 disables.
  double warmup_s = 0;
  int server_workers = 4;
  int io_threads = 2;
  int client_connections = 64;
  int keyspace = 1024;
  std::uint64_t seed = 1;
  /// Census sampling (Figure 2): period in us; 0 disables.
  int census_sample_us = 0;
  /// When nonempty, enable scheduler event tracing for the trial and write
  /// a Chrome trace_event JSON file here (open in chrome://tracing or
  /// Perfetto). One trial overwrites the previous trial's file; point each
  /// bench at one representative trial or use distinct paths.
  std::string trace_out;
  /// When nonempty, profile the trial (sampling window spanning the whole
  /// load run) and write the merged on-CPU/off-CPU collapsed-stack file
  /// here (symbolize with scripts/flamegraph.py). No-op when built
  /// ICILK_OBS=OFF.
  std::string profile_out;
  /// SIGPROF rate for profile_out windows; 0 = the runtime default (99).
  int profile_hz = 0;
  /// Run the trial with the windowed time-series telemetry ticking
  /// (RuntimeConfig::timeseries_enabled); bench/micro_timeseries compares
  /// on/off at fixed load, bench/fig_burst scrapes the ring afterwards.
  bool timeseries = false;
  /// Run the trial with the work/span profiler armed
  /// (RuntimeConfig::spanprof_enabled, the runtime default);
  /// bench/micro_spanprof compares on/off at fixed load.
  bool spanprof = true;
};

struct McTrialResult {
  load::Histogram hist;
  StatsSnapshot sched_stats;     ///< icilk runs only
  double census_avg = 0;         ///< avg non-empty deques at conn priority
  std::size_t completed = 0;
  std::uint64_t client_errors = 0;
};

/// One open-loop trial against the I-Cilk frontend under `sched`.
inline McTrialResult run_mc_trial_icilk(const SchedFactory& make_sched,
                                        const McTrialOptions& opt) {
  McTrialResult res;
  apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = opt.server_workers;
  cfg.rt.num_io_threads = opt.io_threads;
  cfg.rt.num_levels = 2;
  cfg.rt.trace_events = !opt.trace_out.empty();
  cfg.rt.timeseries_enabled = opt.timeseries;
  cfg.rt.spanprof_enabled = opt.spanprof;
  apps::ICilkMcServer server(cfg, make_sched());

  load::McClient::Config ccfg;
  ccfg.port = static_cast<std::uint16_t>(server.port());
  ccfg.connections = opt.client_connections;
  ccfg.keyspace = opt.keyspace;
  ccfg.seed = opt.seed;
  load::McClient client(ccfg);
  if (!client.setup()) {
    std::fprintf(stderr, "mc trial: client setup failed\n");
    return res;
  }

  // Warmup before the census sampler / stats reset / profiler so nothing
  // from it leaks into the measured window. Latencies go to a discarded
  // histogram; errors are snapshotted so the result only counts measured
  // ones.
  if (opt.warmup_s > 0) {
    load::Histogram discard;
    client.run(load::poisson_schedule(opt.rps, opt.warmup_s,
                                      opt.seed ^ 0x9e3779b97f4a7c15ull),
               discard);
  }
  const std::uint64_t warm_errors = client.errors();

  // Census sampler (Figure 2): average non-empty deques at the connection
  // priority over the run.
  std::atomic<bool> sampling{opt.census_sample_us > 0};
  double census_sum = 0;
  std::uint64_t census_n = 0;
  std::thread sampler;
  if (opt.census_sample_us > 0) {
    sampler = std::thread([&] {
      while (sampling.load(std::memory_order_acquire)) {
        census_sum += static_cast<double>(
            server.runtime().census(cfg.conn_priority));
        ++census_n;
        ::usleep(static_cast<useconds_t>(opt.census_sample_us));
      }
    });
  }

  server.runtime().reset_time_stats();
  obs::Profiler* prof =
      opt.profile_out.empty() ? nullptr : server.runtime().profiler();
  if (prof != nullptr && !prof->start(opt.profile_hz)) prof = nullptr;
  if (!opt.profile_out.empty() && prof == nullptr) {
    std::fprintf(stderr,
                 "profile requested but unavailable (ICILK_OBS=OFF or "
                 "window busy): %s\n",
                 opt.profile_out.c_str());
  }
  const auto arrivals =
      load::poisson_schedule(opt.rps, opt.duration_s, opt.seed);
  res.completed = client.run(arrivals, res.hist);
  res.client_errors = client.errors() - warm_errors;
  res.sched_stats = server.runtime().stats_snapshot();
  if (prof != nullptr) {
    const obs::ProfileReport rep = prof->stop();
    if (obs::Profiler::write_folded(rep, opt.profile_out)) {
      std::fprintf(stderr, "profile written: %s (%llu samples, %llu dropped)\n",
                   opt.profile_out.c_str(),
                   static_cast<unsigned long long>(rep.samples),
                   static_cast<unsigned long long>(rep.dropped));
    } else {
      std::fprintf(stderr, "profile write FAILED: %s\n",
                   opt.profile_out.c_str());
    }
  }
  if (!opt.trace_out.empty()) {
    if (server.runtime().trace_sink().write_chrome_trace_file(
            opt.trace_out)) {
      std::fprintf(stderr, "trace written: %s\n", opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace write FAILED: %s\n", opt.trace_out.c_str());
    }
  }
  if (sampler.joinable()) {
    sampling.store(false, std::memory_order_release);
    sampler.join();
    res.census_avg = census_n ? census_sum / static_cast<double>(census_n) : 0;
  }
  server.stop();
  return res;
}

/// Same trial against the pthread baseline.
inline McTrialResult run_mc_trial_pthread(const McTrialOptions& opt) {
  McTrialResult res;
  apps::PthreadMcServer::Config cfg;
  cfg.num_workers = opt.server_workers;
  apps::PthreadMcServer server(cfg);

  load::McClient::Config ccfg;
  ccfg.port = static_cast<std::uint16_t>(server.port());
  ccfg.connections = opt.client_connections;
  ccfg.keyspace = opt.keyspace;
  ccfg.seed = opt.seed;
  load::McClient client(ccfg);
  if (!client.setup()) {
    std::fprintf(stderr, "mc trial: client setup failed\n");
    return res;
  }
  if (opt.warmup_s > 0) {
    load::Histogram discard;
    client.run(load::poisson_schedule(opt.rps, opt.warmup_s,
                                      opt.seed ^ 0x9e3779b97f4a7c15ull),
               discard);
  }
  const std::uint64_t warm_errors = client.errors();
  const auto arrivals =
      load::poisson_schedule(opt.rps, opt.duration_s, opt.seed);
  res.completed = client.run(arrivals, res.hist);
  res.client_errors = client.errors() - warm_errors;
  server.stop();
  return res;
}

/// best_of result plus the per-trial p99 values, so benches can report
/// the SPREAD of a load point (min = the kept trial, median = how noisy
/// the point was) instead of a bare min that hides run-to-run variance.
struct TrialSpread {
  McTrialResult best;
  std::vector<double> p99s_ms;  ///< one entry per completed trial

  double p99_min_ms() const {
    double m = 0;
    for (const double v : p99s_ms) {
      if (m == 0 || v < m) m = v;
    }
    return m;
  }
  double p99_med_ms() const {
    if (p99s_ms.empty()) return 0;
    std::vector<double> s = p99s_ms;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return (n % 2 != 0) ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2.0;
  }
};

/// Repeats a trial, keeps the run with the lower p99, and records every
/// trial's p99. On a single oversubscribed core, OS interference
/// occasionally inflates one run by 10x; min-filtering applies the same
/// optimism to every scheduler, and the recorded spread shows when it
/// had to be applied.
template <typename F>
TrialSpread best_of_spread(int reps, F&& runner) {
  TrialSpread s;
  for (int i = 0; i < reps; ++i) {
    McTrialResult r = runner();
    if (r.completed > 0) {
      s.p99s_ms.push_back(static_cast<double>(r.hist.percentile_ns(0.99)) /
                          1e6);
    }
    if (s.best.completed == 0 ||
        (r.completed > 0 &&
         r.hist.percentile_ns(0.99) < s.best.hist.percentile_ns(0.99))) {
      s.best = std::move(r);
    }
  }
  return s;
}

/// Spread-free variant for benches that only want the min-filtered run.
template <typename F>
McTrialResult best_of(int reps, F&& runner) {
  return best_of_spread(reps, std::forward<F>(runner)).best;
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

inline void print_header(const char* title, const char* cols) {
  std::printf("\n=== %s ===\n%s\n", title, cols);
}

/// Extracts `--trace-out=PATH` (or `--trace-out PATH`) from argv; returns
/// "" when absent. Positional args are left for the bench to interpret.
inline std::string trace_out_arg(int argc, char** argv) {
  const std::string prefix = "--trace-out=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    if (a == "--trace-out" && i + 1 < argc) return argv[i + 1];
  }
  return "";
}

/// --profile-out=<path> / --profile-out <path> (fig1: per-trial folded
/// profiles, tagged like trace files).
inline std::string profile_out_arg(int argc, char** argv) {
  const std::string prefix = "--profile-out=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    if (a == "--profile-out" && i + 1 < argc) return argv[i + 1];
  }
  return "";
}

/// --profile-hz=<n> (0 = runtime default of 99).
inline int profile_hz_arg(int argc, char** argv) {
  const std::string prefix = "--profile-hz=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return std::atoi(a.c_str() + prefix.size());
    if (a == "--profile-hz" && i + 1 < argc) return std::atoi(argv[i + 1]);
  }
  return 0;
}

/// "out.json" + "prompt" -> "out.prompt.json" (tag before the extension),
/// for benches that trace several scheduler configurations in one run.
inline std::string tagged_trace_path(const std::string& base,
                                     const std::string& tag) {
  if (base.empty()) return base;
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + "." + tag;
  }
  return base.substr(0, dot) + "." + tag + base.substr(dot);
}

inline double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace icilk::bench
