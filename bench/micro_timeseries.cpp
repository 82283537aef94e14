// Micro-benchmark: the cost of leaving the time-series telemetry on.
//
// The timeseries has no request-path hook: epochs are deltas of the
// registry's cumulative latency histograms, closed by the runtime's obs
// sampler thread. What remains to price is that thread and the epoch
// digest, end to end:
//
//   mc rows      minicached at 10k rps with the timeseries off vs on (4
//                interleaved pairs, min-filtered on mean latency); the
//                overhead row reports the mean-latency delta. The
//                acceptance is <= 2%; shared-host CI noise exceeds that,
//                so the hard gate (--strict) is opt-in and
//                run_baseline.sh just records it.
//
//   ./bench/micro_timeseries           # mc rows
//   ./bench/micro_timeseries --strict  # exit 1 if overhead > 2%
//
// RESULT lines are consumed by bench/run_baseline.sh.
#include <cstdio>
#include <cstring>

#include "bench/common.hpp"

namespace {

using namespace icilk;
using namespace icilk::bench;

bool bench_mc(bool strict) {
  const double rps = 10000;
  McTrialOptions opt;
  opt.rps = rps;
  opt.duration_s = 2.0;
  opt.warmup_s = 0.5;
  opt.client_connections = 200;

  auto mc_row = [&](const char* ts, const McTrialResult& r) {
    std::printf("RESULT bench=timeseries mode=mc ts=%s rps=%.0f "
                "completed=%zu mean_us=%.2f p99_ms=%.3f err=%llu\n",
                ts, rps, r.completed, r.hist.mean_ns() / 1e3,
                ms(r.hist.percentile_ns(0.99)),
                static_cast<unsigned long long>(r.client_errors));
  };

  McTrialOptions on_opt = opt;
  on_opt.timeseries = true;

  // Interleaved off/on pairs, min-filtered on the MEAN (the metric the
  // overhead row reads — min-p99 selection would pick a different trial
  // than the one being compared). Interleaving matters on shared
  // containers: a slow drift in background load lands on both sides
  // instead of biasing whichever block ran second.
  McTrialResult off;
  McTrialResult on;
  for (int i = 0; i < 4; ++i) {
    McTrialResult r = run_mc_trial_icilk(prompt_config().make, opt);
    if (r.completed > 0 &&
        (off.completed == 0 || r.hist.mean_ns() < off.hist.mean_ns())) {
      off = std::move(r);
    }
    r = run_mc_trial_icilk(prompt_config().make, on_opt);
    if (r.completed > 0 &&
        (on.completed == 0 || r.hist.mean_ns() < on.hist.mean_ns())) {
      on = std::move(r);
    }
  }
  mc_row("off", off);
  mc_row("on", on);

  if (off.completed == 0 || on.completed == 0) {
    std::fprintf(stderr, "FAIL: mc trial produced no completions\n");
    return false;
  }
  const double overhead_pct =
      (on.hist.mean_ns() - off.hist.mean_ns()) / off.hist.mean_ns() * 100.0;
  std::printf("RESULT bench=timeseries mode=overhead rps=%.0f "
              "overhead_pct=%.2f\n",
              rps, overhead_pct);
  if (strict && overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: timeseries overhead %.2f%% > 2%% at %.0f rps\n",
                 overhead_pct, rps);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;
  }
  return bench_mc(strict) ? 0 : 1;
}
