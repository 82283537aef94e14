// Micro-benchmark: the work/span profiler hot path.
//
// Two levels of evidence for the "cheap enough to leave on" claim:
//
//   hook rows    tight-loop cost of the strand hooks against the bare
//                loop baseline: spanprof's half of the dispatch bracket
//                (sp_strand_arm/sp_strand_flush around every fiber run;
//                the TSC clock reuses the bracket's tick readings, so the
//                default pair costs two scalings and the flush, while the
//                precise pair reads CLOCK_THREAD_CPUTIME_ID twice), one
//                structural event (sp_strand_now: clock read, flush +
//                restart), and the disarmed event (the per-event cost
//                when RuntimeConfig::spanprof_enabled=false — one context
//                load and branch). Under -DICILK_OBS=OFF every hook
//                inlines to nothing and all three rows must collapse to
//                the baseline — scripts/soak.sh gates on that in its
//                obsoff phase.
//   mc rows      minicached with the profiler off vs on across the fig1
//                load ladder (2k/6k/10k rps), in adjacent pairs whose
//                within-pair order a deterministic xorshift scrambles;
//                each point's overhead row is the median of the
//                spike-surviving per-pair on/off ratios (p50, p99, and
//                mean) — see the noise-mode catalogue at the trial loop.
//
// --strict turns both into gates: hard absolute bounds on the hook rows
// (repeatable to a few percent; certain to catch the real regression
// class, e.g. the armed path acquiring a ~200ns syscall clock read), and
// the 2% p99 bound on the mc rows at the below-knee points only (gated=1
// in the row), which fails only when the pairs also near-unanimously
// agree the profiler side was slower — a sign test, because --control
// (the same harness with the profiler off on BOTH sides, so any reported
// overhead is pure measurement bias) shows per-run p99 floors of several
// percent on a busy shared host, splitting pairs ~50/50; a real >2%
// overhead moves nearly every pair at once. The 10k point is recorded
// but never gated: with client and server sharing one core it sits at
// utilization ~1, where queueing amplifies sub-percent hook cost and
// background noise alike into double-digit swings.
//
//   ./bench/micro_spanprof            # hook rows + mc rows
//   ./bench/micro_spanprof hooks      # hook rows only (fast; CI/soak)
//   ./bench/micro_spanprof --strict   # exit 1 on hook-bound or gated-p99
//                                     # violation
//   ./bench/micro_spanprof --control  # harness self-test (see above)
//
// RESULT lines are consumed by bench/run_baseline.sh; TRIAL lines are
// per-trial transparency for humans and stay out of the capture.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/common.hpp"
#include "obs/thread_ctx.hpp"

namespace {

using namespace icilk;
using namespace icilk::bench;
using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink = 0;

constexpr std::uint64_t kOps = 10'000'000;

/// All loops share the same xorshift so the only delta is the hook.
template <typename Fn>
double timed_loop(Fn&& fn) {
  std::uint64_t x = 88172645463325252ull;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    fn();
    g_sink = g_sink + (x & 0xFF);
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(kOps);
}

void hook_row(const char* mode, double ns_op) {
  std::printf("RESULT bench=spanprof mode=%s compiled_in=%d ops=%llu "
              "ns_per_op=%.2f\n",
              mode, obs::compiled_in() ? 1 : 0,
              static_cast<unsigned long long>(kOps), ns_op);
}

/// Measured non-precise hook costs, for --strict's deterministic bounds.
struct HookCosts {
  double disarmed_ns = 0;
  double pair_ns = 0;
  double event_ns = 0;
};

HookCosts bench_hooks() {
  HookCosts out;
  const double base = timed_loop([] {});
  hook_row("base", base);

  // Disarmed structural event: the per-event cost with the runtime kill
  // switch thrown (spanprof_enabled=false) — one context load + branch.
  // The result is deliberately unused: sp_strand_now is out-of-line when
  // compiled in (the call can't be elided), and under ICILK_OBS=OFF
  // the inline stub must leave a loop identical to the baseline.
  obs::ThreadCtx& ctx = obs::thread_ctx();
  obs::sp_strand_arm(ctx, nullptr, false, 0);
  const double disarmed = timed_loop([] { (void)obs::sp_strand_now(); });
  hook_row("hook_disarmed", disarmed);
  out.disarmed_ns = disarmed;

  // Spanprof's half of the dispatch bracket (arm going in, flush coming
  // out) and the armed structural event (spawn/sync/future get: flush +
  // restart = one read plus three adds), under both strand clocks — the
  // default TSC and the precise thread-CPU syscall
  // (RuntimeConfig::spanprof_precise). The pair takes its ticks from the
  // caller, as strand_enter/strand_leave hand over the readings that also
  // time the worker's work clock; a counter stands in for them here.
  obs::SpanAcc acc;
  std::uint64_t ticks = 0;
  for (const bool precise : {false, true}) {
    const double pair = timed_loop([&] {
      obs::sp_strand_arm(ctx, &acc, precise, ticks);
      obs::sp_strand_flush(ctx, ++ticks);
    });
    hook_row(precise ? "hook_dispatch_pair_precise" : "hook_dispatch_pair",
             pair);
    if (!precise) out.pair_ns = pair;

    obs::sp_strand_arm(ctx, &acc, precise, now_ticks());
    const double event = timed_loop([] { (void)obs::sp_strand_now(); });
    obs::sp_strand_flush(ctx, now_ticks());
    hook_row(precise ? "hook_event_precise" : "hook_event", event);
    if (!precise) out.event_ns = event;
  }
  return out;
}

/// --strict's deterministic half: absolute bounds on the default-clock
/// hook costs, generous 2-4x over the measured TSC numbers (~2.5ns
/// disarmed, ~55ns pair, ~26ns event) but far below what the whole class
/// of real cost regressions reads — wiring the armed path through the
/// ~200ns CLOCK_THREAD_CPUTIME_ID syscall puts the pair at ~390ns and the
/// event at ~195ns, and arming the disarmed path shows up as a clock read
/// where a context load and branch should be. Unlike the end-to-end rows,
/// these tight-loop numbers are repeatable to a few percent, so the
/// bounds actually discriminate.
bool check_hook_bounds(const HookCosts& c) {
  struct Bound {
    const char* what;
    double got;
    double max;
  };
  const Bound bounds[] = {{"hook_disarmed", c.disarmed_ns, 25.0},
                          {"hook_dispatch_pair", c.pair_ns, 250.0},
                          {"hook_event", c.event_ns, 100.0}};
  bool ok = true;
  for (const Bound& b : bounds) {
    if (b.got > b.max) {
      std::fprintf(stderr, "FAIL: %s %.2f ns/op exceeds %.0f ns bound\n",
                   b.what, b.got, b.max);
      ok = false;
    }
  }
  return ok;
}

double median_of(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// One operating point's verdict: the median surviving per-pair p99
/// delta, and whether the gate's two-part failure condition (effect size
/// AND pair agreement — see below) held.
struct PointVerdict {
  bool valid = false;     ///< at least one pair completed
  double p99_pct = 0;     ///< median surviving per-pair p99 delta, %
  bool over_bound = false;  ///< p99_pct > 2% with near-unanimous pairs
};

/// One operating point of the on/off comparison. `control` runs the
/// profiler OFF on both sides — the harness self-test: whatever it
/// reports is pure measurement bias.
PointVerdict bench_mc_point(double rps, int pairs, bool control,
                            bool gated) {
  McTrialOptions opt;
  opt.rps = rps;
  opt.duration_s = 2.0;
  opt.warmup_s = 0.5;
  opt.client_connections = 200;
  opt.spanprof = false;

  McTrialOptions on_opt = opt;
  on_opt.spanprof = !control;

  // Adjacent paired trials, within-pair order decided by a deterministic
  // xorshift, scored by the MEDIAN per-pair on/off ratio over the pairs
  // that survive spike rejection. Every element earns its keep against a
  // specific, observed noise mode of a shared one-core host:
  //
  //  * pairing — background load drifts by tens of percent on a
  //    tens-of-seconds scale, so only ADJACENT trials (a few seconds
  //    apart) are comparable; control runs (off on both sides) read
  //    +20% under a fixed off-then-on order, +8% with per-side
  //    min-filtering, +5% with plain per-side averages.
  //  * order scramble — a strict ABBA alternation parks one side on
  //    trial slots {3,4,7,8}; a disturbance with a period near four
  //    trial lengths aliases entirely onto that side (observed: two
  //    ~220us spikes both landing on "on" while every "off" trial
  //    stayed clean).
  //  * spike rejection — multi-second 2-5x spikes corrupt whichever
  //    single trial they land in; a pair whose EITHER side's p99 reads
  //    over 1.75x the run-wide median p99 was measured during one and
  //    compares a spike to a quiet window, not on to off. (At a 2%
  //    effect size the profiler can never be the 1.75x, so the cut
  //    cannot eat the signal.)
  //  * median over survivors — drops whatever leaks through, where a
  //    mean would smear it across the verdict.
  //
  // The leading warmup trial is discarded because the first
  // server+client bring-up is reliably the coldest.
  struct PairSample {
    double off_p99, on_p99, off_p50, on_p50, off_mean, on_mean;
  };
  std::vector<PairSample> samples;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull ^ static_cast<std::uint64_t>(rps);
  (void)run_mc_trial_icilk(prompt_config().make, opt);  // discarded warmup
  for (int i = 0; i < pairs; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const bool off_first = (rng & 1) != 0;
    McTrialResult a;
    McTrialResult b;
    if (off_first) {
      a = run_mc_trial_icilk(prompt_config().make, opt);
      b = run_mc_trial_icilk(prompt_config().make, on_opt);
    } else {
      b = run_mc_trial_icilk(prompt_config().make, on_opt);
      a = run_mc_trial_icilk(prompt_config().make, opt);
    }
    // TRIAL (not RESULT): per-trial transparency for a human reading the
    // log; run_baseline.sh must only collect the aggregate rows, or the
    // capture would carry one identity per pair and never diff.
    auto trial_row = [&](const char* sp, const McTrialResult& r) {
      std::printf("TRIAL bench=spanprof mode=mc sp=%s pair=%d rps=%.0f "
                  "completed=%zu p50_us=%.2f mean_us=%.2f p99_ms=%.3f "
                  "err=%llu\n",
                  sp, i, rps, r.completed,
                  r.hist.percentile_ns(0.5) / 1e3, r.hist.mean_ns() / 1e3,
                  ms(r.hist.percentile_ns(0.99)),
                  static_cast<unsigned long long>(r.client_errors));
    };
    trial_row(control ? "off(control)" : "off", a);
    trial_row(control ? "off(control)" : "on", b);
    if (a.completed == 0 || b.completed == 0) continue;
    samples.push_back(
        {static_cast<double>(a.hist.percentile_ns(0.99)),
         static_cast<double>(b.hist.percentile_ns(0.99)),
         static_cast<double>(a.hist.percentile_ns(0.5)),
         static_cast<double>(b.hist.percentile_ns(0.5)),
         a.hist.mean_ns(), b.hist.mean_ns()});
  }
  if (samples.empty()) return {};

  std::vector<double> all_p99;
  for (const PairSample& s : samples) {
    all_p99.push_back(s.off_p99);
    all_p99.push_back(s.on_p99);
  }
  const double p99_med = median_of(all_p99);
  std::vector<double> p99_ratio, p50_ratio, mean_ratio;
  int rejected = 0;
  for (const PairSample& s : samples) {
    if (s.off_p99 > 1.75 * p99_med || s.on_p99 > 1.75 * p99_med) {
      rejected++;
      continue;
    }
    p99_ratio.push_back(s.on_p99 / s.off_p99);
    p50_ratio.push_back(s.on_p50 / s.off_p50);
    mean_ratio.push_back(s.on_mean / s.off_mean);
  }
  if (p99_ratio.empty()) {
    // Everything spiked: fall back to the unfiltered medians rather than
    // report nothing.
    for (const PairSample& s : samples) {
      p99_ratio.push_back(s.on_p99 / s.off_p99);
      p50_ratio.push_back(s.on_p50 / s.off_p50);
      mean_ratio.push_back(s.on_mean / s.off_mean);
    }
  }
  const double p99_pct = (median_of(p99_ratio) - 1.0) * 100.0;
  const double p50_pct = (median_of(p50_ratio) - 1.0) * 100.0;
  const double mean_pct = (median_of(mean_ratio) - 1.0) * 100.0;
  // Sign-test evidence for the gate: host tail noise splits the pairs
  // ~50/50 on which side was slower; a real regression moves nearly all
  // of them. (median_of sorted the vector; the count is order-free.)
  int slower = 0;
  for (const double r : p99_ratio) slower += r > 1.0 ? 1 : 0;
  std::printf("RESULT bench=spanprof mode=overhead rps=%.0f gated=%d "
              "pairs=%d rejected=%d slower=%d p99_overhead_pct=%.2f "
              "p50_overhead_pct=%.2f mean_overhead_pct=%.2f\n",
              rps, gated ? 1 : 0, static_cast<int>(samples.size()), rejected,
              slower, p99_pct, p50_pct, mean_pct);
  // Fail only on effect size AND agreement (>=5/6 of surviving pairs,
  // rounded up): a +2% point bound alone is a coin flip against a p99
  // whose paired control floor is several percent, while a real >2%
  // overhead — say the dispatch clock regressing to a ~200ns syscall —
  // shows up in every pair at once.
  const int n = static_cast<int>(p99_ratio.size());
  const int needed = (5 * n + 5) / 6;
  return {true, p99_pct, p99_pct > 2.0 && slower >= needed};
}

bool bench_mc(bool strict, bool control) {
  // The fig1 ladder minus the past-saturation tail. The 2% bound is
  // gated only BELOW the knee: this host runs the open-loop client and
  // the server on the same core, so at 10k rps total utilization is ~1
  // and queueing amplifies both the profiler's ~1us/request and the
  // host's background-load drift by an order of magnitude — back-to-back
  // 10k runs of this very harness read +13% and +53% p99 with control
  // (off-vs-off) pairs inside them swinging just as hard. Below the knee
  // the measurement reflects hook cost, not amplified scheduling noise;
  // the 10k point still runs and is recorded for the honest worst case.
  struct Point {
    double rps;
    bool gated;
  };
  constexpr Point kPoints[] = {{2000, true}, {6000, true}, {10000, false}};
  constexpr int kPairs = 7;
  bool ok = true;
  for (const Point& pt : kPoints) {
    const PointVerdict v = bench_mc_point(pt.rps, kPairs, control, pt.gated);
    if (!v.valid) {
      std::fprintf(stderr, "FAIL: mc trials at %.0f rps produced no "
                   "completions\n", pt.rps);
      if (strict && pt.gated) ok = false;
      continue;
    }
    if (strict && pt.gated && v.over_bound) {
      std::fprintf(stderr,
                   "FAIL: spanprof p99 overhead %.2f%% > 2%% at %.0f rps "
                   "with near-unanimous pair agreement\n",
                   v.p99_pct, pt.rps);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool hooks_only = false;
  bool strict = false;
  bool control = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "hooks") == 0) hooks_only = true;
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;
    if (std::strcmp(argv[i], "--control") == 0) control = true;
  }
  const HookCosts costs = bench_hooks();
  bool ok = !strict || check_hook_bounds(costs);
  if (hooks_only) return ok ? 0 : 1;
  if (!bench_mc(strict, control)) ok = false;
  return ok ? 0 : 1;
}
