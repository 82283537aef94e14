// Byte-for-byte goldens of every rendered observability surface: the
// latency / parallelism JSON and STAT renderers, the Prometheus text, the
// registry's STAT text, the timeseries document, the watchdog and profiler
// health fragments, the profile report and a whole flight bundle. Every input is scripted (no
// clocks, no threads), so any change to keys, key order, number formats,
// escaping or comma placement shows up here as a diff.
//
// Surfaces that carry a compile-time flag (`compiled_in`) splice the
// current build's value in, so the same goldens hold in the all-OFF build.
// The Chrome trace is not pinned: its timestamps come from the TSC
// (test_chrome_export parses it instead).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/exposition.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/spanprof.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"

namespace icilk::obs {
namespace {

constexpr std::uint64_t kUs = 1000;

std::string tf(bool b) { return b ? "true" : "false"; }

/// A closed request at `level` spanning [begin, begin + total) with the
/// given hops (offsets from begin) and phase split.
ReqContext scripted_request(std::uint64_t id, int level, std::uint64_t begin,
                            std::uint64_t total,
                            std::initializer_list<ReqHop> hops,
                            std::uint32_t dropped = 0) {
  ReqContext rc;
  rc.id = id;
  rc.priority = static_cast<std::uint16_t>(level);
  rc.begin_ns = begin;
  rc.end_ns = begin + total;
  for (const ReqHop& h : hops) {
    rc.hops[rc.nhops] = h;
    rc.hops[rc.nhops].t_ns += begin;
    ++rc.nhops;
  }
  rc.hops_dropped = dropped;
  // Queueing gets a tenth, suspended-io three tenths, the rest executes.
  rc.phase_ns[static_cast<int>(ReqPhase::kQueueing)] = total / 10;
  rc.phase_ns[static_cast<int>(ReqPhase::kSuspendedIo)] = total * 3 / 10;
  rc.phase_ns[static_cast<int>(ReqPhase::kExecuting)] =
      total - total / 10 - total * 3 / 10;
  return rc;
}

void record(MetricsRegistry& m, const ReqContext& rc) {
  m.record_request(rc, rc.end_ns - rc.begin_ns);
}

/// Counters, promptness/aging, I/O and watchdog gauges, requests with
/// timelines, and parallelism samples on levels 1 and 2 of 4.
void script_registry(MetricsRegistry& m) {
  for (int i = 0; i < 3; ++i) m.count(EventKind::kSteal, 1);
  for (int i = 0; i < 2; ++i) m.count(EventKind::kMug, 1);
  m.count(EventKind::kAbandon, 1);
  for (int i = 0; i < 2; ++i) m.count(EventKind::kResume, 1);
  for (int i = 0; i < 2; ++i) m.count(EventKind::kSuspend, 1);
  m.count(EventKind::kSteal, 2);
  m.count(EventKind::kIoSubmit, 2);
  m.record_promptness(1, 1500);
  m.record_promptness(1, 250 * kUs);
  m.record_aging(1, 42 * kUs);
  m.io_count(IoStat::kFdTableProbe, 7);
  m.io_count(IoStat::kTimerScheduled, 2);
  m.io_gauge_add(IoGauge::kArmedOps, 3);
  m.wd_set(WdGauge::kSamples, 2);
  m.wd_set(WdGauge::kSleepers, 1);
  m.wd_set(WdGauge::kSuspAgeMaxUs, 15);

  record(m, scripted_request(
                11, 1, 5000, 120 * kUs,
                {{0, ReqPhase::kQueueing, 0},
                 {12 * kUs, ReqPhase::kExecuting, 1},
                 {40 * kUs, ReqPhase::kSuspendedIo, ReqHop::kNoWhere},
                 {100 * kUs, ReqPhase::kExecuting, 0}}));
  record(m, scripted_request(12, 1, 9000, 35 * kUs,
                             {{0, ReqPhase::kQueueing, 0},
                              {3 * kUs, ReqPhase::kExecuting, 1}},
                             2));
  record(m, scripted_request(13, 1, 20000, 8 * kUs,
                             {{0, ReqPhase::kQueueing, 1}}));
  record(m, scripted_request(21, 2, 100, 2500 * kUs,
                             {{0, ReqPhase::kQueueing, 0},
                              {1200 * kUs, ReqPhase::kRunnable, 1}}));

  m.record_parallelism(1, 11, 300 * kUs, 100 * kUs, 110 * kUs);
  m.record_parallelism(1, 12, 50 * kUs, 40 * kUs, 45 * kUs);
  m.record_parallelism(2, 21, 9000 * kUs, 2500 * kUs, 2400 * kUs);
}

/// A 2-worker / 4-level sampler snapshot at virtual time `t`.
WdSample scripted_sample(std::uint64_t t) {
  WdSample s;
  s.t_ns = t;
  s.bitfield = 0x6;
  s.num_levels = 4;
  s.num_workers = 2;
  s.pool_depth[1] = 2;
  s.mug_depth[1] = 1;
  s.census[2] = 3;
  s.worker_state[0] = static_cast<std::uint8_t>(WdWorkerState::kWorking);
  s.worker_level[0] = 1;
  s.worker_state[1] = static_cast<std::uint8_t>(WdWorkerState::kStealing);
  s.sleepers = 1;
  s.wakeups = 17;
  s.zero_transitions = 5;
  s.tasks_run = 400;
  s.suspended = 3;
  s.resumable = 1;
  s.susp_age_p50_ns = 1000;
  s.susp_age_p99_ns = 9000;
  s.susp_age_max_ns = 12000;
  s.res_age_p50_ns = 2000;
  s.res_age_p99_ns = 2000;
  s.res_age_max_ns = 2000;
  s.res_oldest_level = 2;
  s.res_oldest_age_ns = 2000;
  s.io_armed = 4;
  s.timers_pending = 1;
  return s;
}

struct ObsGolden : ::testing::Test {
  void SetUp() override {
    TimeSeries::Config tc;
    tc.epoch_ms = 100;
    tc.epochs = 4;
    tc.metrics = &m;
    tc.scheduler = "prompt";
    ts = std::make_unique<TimeSeries>(tc);
    script_registry(m);
    // First close at t=1 (before the construction clock): duration 0.
    ts->close_epoch(scripted_sample(1));
    record(m, scripted_request(14, 1, 30000, 60 * kUs,
                               {{0, ReqPhase::kQueueing, 0}}));
    ts->close_epoch(scripted_sample(100000001));
  }

  MetricsRegistry m{4};
  std::unique_ptr<TimeSeries> ts;
};

TEST_F(ObsGolden, LatencyJson) {
  EXPECT_EQ(latency_json(m), R"G({"levels":[{"level":1,"count":4,"total_us":{"p50":35.3,"p90":120.8,"p99":120.8,"max":120.0,"mean":55.8},"phases":{"queueing":{"count":4,"sum_us":22.3,"p50":3.5,"p99":12.0,"max":12.0},"executing":{"count":4,"sum_us":133.8,"p50":21.2,"p99":72.7,"max":72.0},"runnable":{"count":0,"sum_us":0.0,"p50":0.0,"p99":0.0,"max":0.0},"suspended_io":{"count":4,"sum_us":66.9,"p50":10.6,"p99":36.4,"max":36.0},"suspended_sync":{"count":0,"sum_us":0.0,"p50":0.0,"p99":0.0,"max":0.0}},"worst":[{"id":11,"total_us":120.0,"hops_dropped":0,"hops":[{"t_us":0.0,"phase":"queueing","where":0},{"t_us":12.0,"phase":"executing","where":1},{"t_us":40.0,"phase":"suspended_io","where":-32768},{"t_us":100.0,"phase":"executing","where":0}]},{"id":14,"total_us":60.0,"hops_dropped":0,"hops":[{"t_us":0.0,"phase":"queueing","where":0}]},{"id":12,"total_us":35.0,"hops_dropped":2,"hops":[{"t_us":0.0,"phase":"queueing","where":0},{"t_us":3.0,"phase":"executing","where":1}]},{"id":13,"total_us":8.0,"hops_dropped":0,"hops":[{"t_us":0.0,"phase":"queueing","where":1}]}]},{"level":2,"count":1,"total_us":{"p50":2523.1,"p90":2523.1,"p99":2523.1,"max":2500.0,"mean":2500.0},"phases":{"queueing":{"count":1,"sum_us":250.0,"p50":251.9,"p99":251.9,"max":250.0},"executing":{"count":1,"sum_us":1500.0,"p50":1507.3,"p99":1507.3,"max":1500.0},"runnable":{"count":0,"sum_us":0.0,"p50":0.0,"p99":0.0,"max":0.0},"suspended_io":{"count":1,"sum_us":750.0,"p50":753.7,"p99":753.7,"max":750.0},"suspended_sync":{"count":0,"sum_us":0.0,"p50":0.0,"p99":0.0,"max":0.0}},"worst":[{"id":21,"total_us":2500.0,"hops_dropped":0,"hops":[{"t_us":0.0,"phase":"queueing","where":0},{"t_us":1200.0,"phase":"runnable","where":1}]}]}]})G");
}

TEST_F(ObsGolden, LatencyStatsText) {
  EXPECT_EQ(latency_stats_text(m, "icilk_", "\n"), R"G(STAT icilk_l1_req_count 4
STAT icilk_l1_req_p50_us 35
STAT icilk_l1_req_p99_us 120
STAT icilk_l1_req_max_us 120
STAT icilk_l1_phase_queueing_p50_us 3
STAT icilk_l1_phase_queueing_p99_us 12
STAT icilk_l1_phase_queueing_sum_us 22
STAT icilk_l1_phase_executing_p50_us 21
STAT icilk_l1_phase_executing_p99_us 72
STAT icilk_l1_phase_executing_sum_us 133
STAT icilk_l1_phase_suspended_io_p50_us 10
STAT icilk_l1_phase_suspended_io_p99_us 36
STAT icilk_l1_phase_suspended_io_sum_us 66
STAT icilk_l1_worst0 id=11 total_us=120 hops=queueing@0:+0us,executing@1:+12us,suspended_io@-32768:+40us,executing@0:+100us
STAT icilk_l1_worst1 id=14 total_us=60 hops=queueing@0:+0us
STAT icilk_l1_worst2 id=12 total_us=35 hops=queueing@0:+0us,executing@1:+3us,...
STAT icilk_l1_worst3 id=13 total_us=8 hops=queueing@1:+0us
STAT icilk_l2_req_count 1
STAT icilk_l2_req_p50_us 2523
STAT icilk_l2_req_p99_us 2523
STAT icilk_l2_req_max_us 2500
STAT icilk_l2_phase_queueing_p50_us 251
STAT icilk_l2_phase_queueing_p99_us 251
STAT icilk_l2_phase_queueing_sum_us 250
STAT icilk_l2_phase_executing_p50_us 1507
STAT icilk_l2_phase_executing_p99_us 1507
STAT icilk_l2_phase_executing_sum_us 1500
STAT icilk_l2_phase_suspended_io_p50_us 753
STAT icilk_l2_phase_suspended_io_p99_us 753
STAT icilk_l2_phase_suspended_io_sum_us 750
STAT icilk_l2_worst0 id=21 total_us=2500 hops=queueing@0:+0us,runnable@1:+1200us
)G");
}

TEST_F(ObsGolden, ParallelismJson) {
  EXPECT_EQ(parallelism_json(m),
            "{\"compiled_in\":" + tf(spanprof_compiled_in()) +
                R"G(,"requests":3,"work_ms":9.350,"span_ms":2.640,"levels":[{"level":1,"count":2,"work_us":{"p50":50.2,"p99":303.1,"mean":175.0},"span_us":{"p50":40.4,"p99":100.4,"mean":70.0},"bspan_us":{"p50":45.1,"p99":110.6},"parallelism":{"p10":1.263,"p50":1.263,"p90":3.007},"worst":[{"id":12,"work_us":50.0,"span_us":40.0,"bspan_us":45.0,"par":1.250},{"id":11,"work_us":300.0,"span_us":100.0,"bspan_us":110.0,"par":3.000}]},{"level":2,"count":1,"work_us":{"p50":9044.0,"p99":9044.0,"mean":9000.0},"span_us":{"p50":2523.1,"p99":2523.1,"mean":2500.0},"bspan_us":{"p50":2523.1,"p99":2523.1},"parallelism":{"p10":3.615,"p50":3.615,"p90":3.615},"worst":[{"id":21,"work_us":9000.0,"span_us":2500.0,"bspan_us":2500.0,"par":3.600}]}]})G");
}

TEST_F(ObsGolden, ParallelismStatsText) {
  EXPECT_EQ(parallelism_stats_text(m, "icilk_", "\n"), R"G(STAT icilk_l1_par_count 2
STAT icilk_l1_work_p50_us 50
STAT icilk_l1_work_p99_us 303
STAT icilk_l1_span_p50_us 40
STAT icilk_l1_span_p99_us 100
STAT icilk_l1_bspan_p50_us 45
STAT icilk_l1_bspan_p99_us 110
STAT icilk_l1_par_p10_milli 1263
STAT icilk_l1_par_p50_milli 1263
STAT icilk_l1_par_p90_milli 3007
STAT icilk_l1_leastpar0 id=12 work_us=50 span_us=40 bspan_us=45 par=1.250
STAT icilk_l1_leastpar1 id=11 work_us=300 span_us=100 bspan_us=110 par=3.000
STAT icilk_l2_par_count 1
STAT icilk_l2_work_p50_us 9043
STAT icilk_l2_work_p99_us 9043
STAT icilk_l2_span_p50_us 2523
STAT icilk_l2_span_p99_us 2523
STAT icilk_l2_bspan_p50_us 2523
STAT icilk_l2_bspan_p99_us 2523
STAT icilk_l2_par_p10_milli 3615
STAT icilk_l2_par_p50_milli 3615
STAT icilk_l2_par_p90_milli 3615
STAT icilk_l2_leastpar0 id=21 work_us=9000 span_us=2500 bspan_us=2500 par=3.600
)G");
}

TEST_F(ObsGolden, PrometheusText) {
  EXPECT_EQ(prometheus_text(m, nullptr, "extra_series 1\n"), R"G(# HELP icilk_events_total Scheduler events by priority level.
# TYPE icilk_events_total counter
icilk_events_total{level="1",kind="steal"} 3
icilk_events_total{level="1",kind="mug"} 2
icilk_events_total{level="1",kind="abandon"} 1
icilk_events_total{level="1",kind="suspend"} 2
icilk_events_total{level="1",kind="resume"} 2
icilk_events_total{level="2",kind="steal"} 1
# HELP icilk_request_latency_seconds End-to-end request latency by priority level.
# TYPE icilk_request_latency_seconds summary
icilk_request_latency_seconds{level="1",quantile="0.5"} 0.000035327
icilk_request_latency_seconds{level="1",quantile="0.9"} 0.000120831
icilk_request_latency_seconds{level="1",quantile="0.99"} 0.000120831
icilk_request_latency_seconds_sum{level="1"} 0.000223000
icilk_request_latency_seconds_count{level="1"} 4
icilk_request_latency_seconds{level="2",quantile="0.5"} 0.002523135
icilk_request_latency_seconds{level="2",quantile="0.9"} 0.002523135
icilk_request_latency_seconds{level="2",quantile="0.99"} 0.002523135
icilk_request_latency_seconds_sum{level="2"} 0.002500000
icilk_request_latency_seconds_count{level="2"} 1
# HELP icilk_request_phase_seconds Request time attributed to each lifecycle phase (see DESIGN.md).
# TYPE icilk_request_phase_seconds summary
icilk_request_phase_seconds{level="1",phase="queueing",quantile="0.5"} 0.000003519
icilk_request_phase_seconds{level="1",phase="queueing",quantile="0.9"} 0.000012031
icilk_request_phase_seconds{level="1",phase="queueing",quantile="0.99"} 0.000012031
icilk_request_phase_seconds_sum{level="1",phase="queueing"} 0.000022300
icilk_request_phase_seconds_count{level="1",phase="queueing"} 4
icilk_request_phase_seconds{level="1",phase="executing",quantile="0.5"} 0.000021247
icilk_request_phase_seconds{level="1",phase="executing",quantile="0.9"} 0.000072703
icilk_request_phase_seconds{level="1",phase="executing",quantile="0.99"} 0.000072703
icilk_request_phase_seconds_sum{level="1",phase="executing"} 0.000133800
icilk_request_phase_seconds_count{level="1",phase="executing"} 4
icilk_request_phase_seconds{level="1",phase="runnable",quantile="0.5"} 0.000000000
icilk_request_phase_seconds{level="1",phase="runnable",quantile="0.9"} 0.000000000
icilk_request_phase_seconds{level="1",phase="runnable",quantile="0.99"} 0.000000000
icilk_request_phase_seconds_sum{level="1",phase="runnable"} 0.000000000
icilk_request_phase_seconds_count{level="1",phase="runnable"} 0
icilk_request_phase_seconds{level="1",phase="suspended_io",quantile="0.5"} 0.000010623
icilk_request_phase_seconds{level="1",phase="suspended_io",quantile="0.9"} 0.000036351
icilk_request_phase_seconds{level="1",phase="suspended_io",quantile="0.99"} 0.000036351
icilk_request_phase_seconds_sum{level="1",phase="suspended_io"} 0.000066900
icilk_request_phase_seconds_count{level="1",phase="suspended_io"} 4
icilk_request_phase_seconds{level="1",phase="suspended_sync",quantile="0.5"} 0.000000000
icilk_request_phase_seconds{level="1",phase="suspended_sync",quantile="0.9"} 0.000000000
icilk_request_phase_seconds{level="1",phase="suspended_sync",quantile="0.99"} 0.000000000
icilk_request_phase_seconds_sum{level="1",phase="suspended_sync"} 0.000000000
icilk_request_phase_seconds_count{level="1",phase="suspended_sync"} 0
icilk_request_phase_seconds{level="2",phase="queueing",quantile="0.5"} 0.000251903
icilk_request_phase_seconds{level="2",phase="queueing",quantile="0.9"} 0.000251903
icilk_request_phase_seconds{level="2",phase="queueing",quantile="0.99"} 0.000251903
icilk_request_phase_seconds_sum{level="2",phase="queueing"} 0.000250000
icilk_request_phase_seconds_count{level="2",phase="queueing"} 1
icilk_request_phase_seconds{level="2",phase="executing",quantile="0.5"} 0.001507327
icilk_request_phase_seconds{level="2",phase="executing",quantile="0.9"} 0.001507327
icilk_request_phase_seconds{level="2",phase="executing",quantile="0.99"} 0.001507327
icilk_request_phase_seconds_sum{level="2",phase="executing"} 0.001500000
icilk_request_phase_seconds_count{level="2",phase="executing"} 1
icilk_request_phase_seconds{level="2",phase="runnable",quantile="0.5"} 0.000000000
icilk_request_phase_seconds{level="2",phase="runnable",quantile="0.9"} 0.000000000
icilk_request_phase_seconds{level="2",phase="runnable",quantile="0.99"} 0.000000000
icilk_request_phase_seconds_sum{level="2",phase="runnable"} 0.000000000
icilk_request_phase_seconds_count{level="2",phase="runnable"} 0
icilk_request_phase_seconds{level="2",phase="suspended_io",quantile="0.5"} 0.000753663
icilk_request_phase_seconds{level="2",phase="suspended_io",quantile="0.9"} 0.000753663
icilk_request_phase_seconds{level="2",phase="suspended_io",quantile="0.99"} 0.000753663
icilk_request_phase_seconds_sum{level="2",phase="suspended_io"} 0.000750000
icilk_request_phase_seconds_count{level="2",phase="suspended_io"} 1
icilk_request_phase_seconds{level="2",phase="suspended_sync",quantile="0.5"} 0.000000000
icilk_request_phase_seconds{level="2",phase="suspended_sync",quantile="0.9"} 0.000000000
icilk_request_phase_seconds{level="2",phase="suspended_sync",quantile="0.99"} 0.000000000
icilk_request_phase_seconds_sum{level="2",phase="suspended_sync"} 0.000000000
icilk_request_phase_seconds_count{level="2",phase="suspended_sync"} 0
# HELP icilk_request_work_seconds Per-request total task CPU time (T1).
# TYPE icilk_request_work_seconds summary
icilk_request_work_seconds{level="1",quantile="0.5"} 0.000050175
icilk_request_work_seconds{level="1",quantile="0.9"} 0.000303103
icilk_request_work_seconds{level="1",quantile="0.99"} 0.000303103
icilk_request_work_seconds_sum{level="1"} 0.000350000
icilk_request_work_seconds_count{level="1"} 2
icilk_request_work_seconds{level="2",quantile="0.5"} 0.009043967
icilk_request_work_seconds{level="2",quantile="0.9"} 0.009043967
icilk_request_work_seconds{level="2",quantile="0.99"} 0.009043967
icilk_request_work_seconds_sum{level="2"} 0.009000000
icilk_request_work_seconds_count{level="2"} 1
# HELP icilk_request_span_seconds Per-request critical path (Tinf), the serial floor.
# TYPE icilk_request_span_seconds summary
icilk_request_span_seconds{level="1",quantile="0.5"} 0.000040447
icilk_request_span_seconds{level="1",quantile="0.9"} 0.000100351
icilk_request_span_seconds{level="1",quantile="0.99"} 0.000100351
icilk_request_span_seconds_sum{level="1"} 0.000140000
icilk_request_span_seconds_count{level="1"} 2
icilk_request_span_seconds{level="2",quantile="0.5"} 0.002523135
icilk_request_span_seconds{level="2",quantile="0.9"} 0.002523135
icilk_request_span_seconds{level="2",quantile="0.99"} 0.002523135
icilk_request_span_seconds_sum{level="2"} 0.002500000
icilk_request_span_seconds_count{level="2"} 1
# HELP icilk_request_burdened_span_seconds Critical path including measured scheduler overhead.
# TYPE icilk_request_burdened_span_seconds summary
icilk_request_burdened_span_seconds{level="1",quantile="0.5"} 0.000045055
icilk_request_burdened_span_seconds{level="1",quantile="0.9"} 0.000110591
icilk_request_burdened_span_seconds{level="1",quantile="0.99"} 0.000110591
icilk_request_burdened_span_seconds_sum{level="1"} 0.000155000
icilk_request_burdened_span_seconds_count{level="1"} 2
icilk_request_burdened_span_seconds{level="2",quantile="0.5"} 0.002523135
icilk_request_burdened_span_seconds{level="2",quantile="0.9"} 0.002523135
icilk_request_burdened_span_seconds{level="2",quantile="0.99"} 0.002523135
icilk_request_burdened_span_seconds_sum{level="2"} 0.002500000
icilk_request_burdened_span_seconds_count{level="2"} 1
# HELP icilk_request_parallelism Average parallelism (work/span) per request.
# TYPE icilk_request_parallelism summary
icilk_request_parallelism{level="1",quantile="0.5"} 1.263
icilk_request_parallelism{level="1",quantile="0.9"} 3.007
icilk_request_parallelism{level="1",quantile="0.99"} 3.007
icilk_request_parallelism_count{level="1"} 2
icilk_request_parallelism{level="2",quantile="0.5"} 3.615
icilk_request_parallelism{level="2",quantile="0.9"} 3.615
icilk_request_parallelism{level="2",quantile="0.99"} 3.615
icilk_request_parallelism_count{level="2"} 1
# HELP icilk_promptness_seconds Level nonempty -> first acquisition latency.
# TYPE icilk_promptness_seconds summary
icilk_promptness_seconds{level="1",quantile="0.5"} 0.000001503
icilk_promptness_seconds{level="1",quantile="0.9"} 0.000251903
icilk_promptness_seconds{level="1",quantile="0.99"} 0.000251903
icilk_promptness_seconds_sum{level="1"} 0.000251500
icilk_promptness_seconds_count{level="1"} 2
# HELP icilk_aging_seconds Deque resumable -> resumed delay.
# TYPE icilk_aging_seconds summary
icilk_aging_seconds{level="1",quantile="0.5"} 0.000042495
icilk_aging_seconds{level="1",quantile="0.9"} 0.000042495
icilk_aging_seconds{level="1",quantile="0.99"} 0.000042495
icilk_aging_seconds_sum{level="1"} 0.000042000
icilk_aging_seconds_count{level="1"} 1
# HELP icilk_io_total Reactor fast-path events.
# TYPE icilk_io_total counter
icilk_io_total{stat="fd_probes"} 7
icilk_io_total{stat="fd_overflow"} 0
icilk_io_total{stat="fd_cancels"} 0
icilk_io_total{stat="stale_events"} 0
icilk_io_total{stat="timers_sharded"} 2
icilk_io_total{stat="timers_inline"} 0
# HELP icilk_io_depth Reactor queue depths (armed ops, pending timers).
# TYPE icilk_io_depth gauge
icilk_io_depth{queue="armed_ops"} 3
icilk_io_depth{queue="timers_pending"} 0
# HELP icilk_watchdog Flight-recorder sampler gauges and detector trip counts.
# TYPE icilk_watchdog gauge
icilk_watchdog{gauge="samples"} 2
icilk_watchdog{gauge="sleepers"} 1
icilk_watchdog{gauge="wakeups"} 0
icilk_watchdog{gauge="zero_transitions"} 0
icilk_watchdog{gauge="suspended"} 0
icilk_watchdog{gauge="resumable"} 0
icilk_watchdog{gauge="susp_age_max_us"} 15
icilk_watchdog{gauge="res_age_max_us"} 0
icilk_watchdog{gauge="active_levels"} 0
icilk_watchdog{gauge="io_armed"} 0
icilk_watchdog{gauge="timers_pending"} 0
icilk_watchdog{gauge="trips_promptness"} 0
icilk_watchdog{gauge="trips_aging_stall"} 0
icilk_watchdog{gauge="trips_wake_storm"} 0
icilk_watchdog{gauge="trips_census_leak"} 0
icilk_watchdog{gauge="bundles"} 0
extra_series 1
)G");
}

TEST_F(ObsGolden, RegistryText) {
  EXPECT_EQ(m.text("icilk_", "\n"), R"G(STAT icilk_l1_steals 3
STAT icilk_l1_mugs 2
STAT icilk_l1_abandons 1
STAT icilk_l1_resumes 2
STAT icilk_l1_suspends 2
STAT icilk_l1_prompt_count 2
STAT icilk_l1_prompt_p50_us 1
STAT icilk_l1_prompt_p99_us 251
STAT icilk_l1_prompt_max_us 250
STAT icilk_l1_aging_count 1
STAT icilk_l1_aging_p50_us 42
STAT icilk_l1_aging_p99_us 42
STAT icilk_l1_aging_max_us 42
STAT icilk_l1_par_count 2
STAT icilk_l1_work_p50_us 50
STAT icilk_l1_span_p50_us 40
STAT icilk_l1_bspan_p50_us 45
STAT icilk_l1_par_p50_milli 1263
STAT icilk_l1_par_p10_milli 1263
STAT icilk_l2_steals 1
STAT icilk_l2_mugs 0
STAT icilk_l2_abandons 0
STAT icilk_l2_resumes 0
STAT icilk_l2_suspends 0
STAT icilk_l2_par_count 1
STAT icilk_l2_work_p50_us 9043
STAT icilk_l2_span_p50_us 2523
STAT icilk_l2_bspan_p50_us 2523
STAT icilk_l2_par_p50_milli 3615
STAT icilk_l2_par_p10_milli 3615
STAT icilk_io_fd_probes 7
STAT icilk_io_timers_sharded 2
STAT icilk_io_armed_ops 3
STAT icilk_wd_samples 2
STAT icilk_wd_sleepers 1
STAT icilk_wd_wakeups 0
STAT icilk_wd_zero_transitions 0
STAT icilk_wd_suspended 0
STAT icilk_wd_resumable 0
STAT icilk_wd_susp_age_max_us 15
STAT icilk_wd_res_age_max_us 0
STAT icilk_wd_active_levels 0
STAT icilk_wd_io_armed 0
STAT icilk_wd_timers_pending 0
STAT icilk_wd_trips_promptness 0
STAT icilk_wd_trips_aging_stall 0
STAT icilk_wd_trips_wake_storm 0
STAT icilk_wd_trips_census_leak 0
STAT icilk_wd_bundles 0
)G");
}

TEST_F(ObsGolden, TimeSeriesJson) {
  EXPECT_EQ(ts->json(), R"G({"timeseries":1,"scheduler":"prompt","epoch_ms":100,"capacity":4,"epochs_closed":2,"epochs":[{"seq":0,"t_ns":1,"duration_ns":0,"steals":4,"mugs":2,"abandons":1,"resumes":2,"io_submits":1,"io_completes":0,"sp_reqs":3,"sp_work_ns":9350000,"sp_span_ns":2640000,"sleepers":1,"io_armed":4,"timers_pending":1,"bitfield":"0x6","levels":{"1":{"count":3,"p50_ns":35327,"p99_ns":120831,"max_ns":120000,"pool":2,"mug":1},"2":{"count":1,"p50_ns":2523135,"p99_ns":2523135,"max_ns":2500000,"pool":0,"mug":0}}},{"seq":1,"t_ns":100000001,"duration_ns":100000000,"steals":0,"mugs":0,"abandons":0,"resumes":0,"io_submits":0,"io_completes":0,"sp_reqs":0,"sp_work_ns":0,"sp_span_ns":0,"sleepers":1,"io_armed":4,"timers_pending":1,"bitfield":"0x6","levels":{"1":{"count":1,"p50_ns":60415,"p99_ns":60415,"max_ns":60415,"pool":2,"mug":1}}}]}
)G");
  EXPECT_EQ(ts->json(1), R"G({"timeseries":1,"scheduler":"prompt","epoch_ms":100,"capacity":4,"epochs_closed":2,"epochs":[{"seq":1,"t_ns":100000001,"duration_ns":100000000,"steals":0,"mugs":0,"abandons":0,"resumes":0,"io_submits":0,"io_completes":0,"sp_reqs":0,"sp_work_ns":0,"sp_span_ns":0,"sleepers":1,"io_armed":4,"timers_pending":1,"bitfield":"0x6","levels":{"1":{"count":1,"p50_ns":60415,"p99_ns":60415,"max_ns":60415,"pool":2,"mug":1}}}]}
)G");
}

TEST_F(ObsGolden, TimeSeriesStatsText) {
  EXPECT_EQ(ts->stats_text("icilk_", "\n"), R"G(STAT icilk_ts_epoch_ms 100
STAT icilk_ts_epochs_closed 2
STAT icilk_ts_last_duration_us 100000
STAT icilk_ts_last_steals 0
STAT icilk_ts_last_mugs 0
STAT icilk_ts_last_abandons 0
STAT icilk_ts_last_resumes 0
STAT icilk_ts_last_io_submits 0
STAT icilk_ts_last_io_completes 0
STAT icilk_ts_last_sp_reqs 0
STAT icilk_ts_last_sp_work_us 0
STAT icilk_ts_last_sp_span_us 0
STAT icilk_ts_last_sleepers 1
STAT icilk_ts_last_io_armed 4
STAT icilk_ts_last_timers_pending 1
STAT icilk_ts_l1_count 1
STAT icilk_ts_l1_p50_us 60
STAT icilk_ts_l1_p99_us 60
STAT icilk_ts_l1_max_us 60
)G");
}

Watchdog::Config watchdog_config() {
  Watchdog::Config cfg;
  cfg.bundle_dir = testing::TempDir();
  cfg.bundle_prefix = "golden";
  cfg.scheduler = "pro\"mpt\\q\n";
  return cfg;
}

TEST_F(ObsGolden, WatchdogHealth) {
  Watchdog wd(watchdog_config());
  wd.sample_once(scripted_sample(1000000));
  wd.sample_once(scripted_sample(11000000));
  EXPECT_EQ(wd.health_json(), "{\"watchdog\":{\"compiled_in\":" +
                                  tf(watchdog_compiled_in()) +
                                  R"G(,"scheduler":"pro\"mpt\\q\n","period_ms":10,"samples":2,"gauges":{"sleepers":1,"wakeups":17,"zero_transitions":5,"tasks_run":400,"active_levels":2,"suspended":3,"resumable":1,"susp_age_max_ns":12000,"res_age_max_ns":2000,"io_armed":4,"timers_pending":1},"trips":{"promptness":0,"aging_stall":0,"wake_storm":0,"census_leak":0,"total":0},"bundles":{"written":0,"last_path":""}}})G");
  EXPECT_EQ(wd.health_stats_text("icilk_", "\n"), R"G(STAT icilk_wd_samples 2
STAT icilk_wd_period_ms 10
STAT icilk_wd_sleepers 1
STAT icilk_wd_wakeups 17
STAT icilk_wd_zero_transitions 5
STAT icilk_wd_active_levels 2
STAT icilk_wd_suspended 3
STAT icilk_wd_resumable 1
STAT icilk_wd_susp_age_max_us 12
STAT icilk_wd_res_age_max_us 2
STAT icilk_wd_io_armed 4
STAT icilk_wd_timers_pending 1
STAT icilk_wd_trips_promptness 0
STAT icilk_wd_trips_aging_stall 0
STAT icilk_wd_trips_wake_storm 0
STAT icilk_wd_trips_census_leak 0
STAT icilk_wd_trips_total 0
STAT icilk_wd_bundles 0
)G");
}

TEST_F(ObsGolden, ProfilerHealth) {
  const std::string ci = tf(profile_compiled_in());
  const std::string ci01 = profile_compiled_in() ? "1" : "0";
  EXPECT_EQ(prof_health_json(nullptr),
            "{\"compiled_in\":" + ci + ",\"running\":false}");
  EXPECT_EQ(prof_health_stats_text(nullptr, "icilk_", "\n"),
            "STAT icilk_prof_compiled_in " + ci01 +
                "\nSTAT icilk_prof_running 0\n");
  Profiler::Config pc;
  pc.default_hz = 97;
  Profiler prof(pc);
  EXPECT_EQ(prof_health_json(&prof),
            "{\"compiled_in\":" + ci +
                ",\"running\":false,\"hz\":97,\"threads\":0,\"windows\":0,"
                "\"samples\":0,\"dropped\":0}");
  EXPECT_EQ(prof_health_stats_text(&prof, "icilk_", "\n"),
            "STAT icilk_prof_compiled_in " + ci01 +
                "\nSTAT icilk_prof_running 0\nSTAT icilk_prof_hz 97\n"
                "STAT icilk_prof_threads 0\nSTAT icilk_prof_windows 0\n"
                "STAT icilk_prof_samples 0\nSTAT icilk_prof_dropped 0\n");
}

TEST_F(ObsGolden, ProfileReportJson) {
  ProfileReport r;
  r.hz = 99;
  r.period_ns = 10101010;
  r.window_ns = 2000000000;
  r.samples = 3;
  r.dropped = 1;
  r.offcpu_ns = 5000;
  r.exe = "/bin/\"kv\"\tserver";
  r.modules.push_back({0x400000, 0x4a0000, "/bin/kv"});
  r.modules.push_back({0x7f0000000000, 0x7f0000100000, "/lib/c\\x.so"});
  r.stacks.push_back({"oncpu;worker;task;l1;0x401000;0x402000", 20202020, 2});
  r.stacks.push_back({"offcpu;queueing;l1", 5000, 0});
  EXPECT_EQ(Profiler::json_text(r), R"G({"hz":99,"period_ns":10101010,"window_ns":2000000000,"samples":3,"dropped":1,"offcpu_ns":5000,"exe":"/bin/\"kv\"\tserver","modules":[{"base":4194304,"end":4849664,"path":"/bin/kv"},{"base":139637976727552,"end":139637977776128,"path":"/lib/c\\x.so"}],"stacks":[{"stack":"oncpu;worker;task;l1;0x401000;0x402000","ns":20202020,"count":2},{"stack":"offcpu;queueing;l1","ns":5000,"count":0}]})G");
}

TEST_F(ObsGolden, FlightBundle) {
  FlightBundle b;
  b.reason = "manual";
  b.detail = "level 2 \"stuck\"\tfor 3ms";
  b.build_flags = "golden";
  b.scheduler = "prompt";
  b.inject_seed = 42;
  b.trigger = scripted_sample(11000000);
  b.history = {scripted_sample(1000000), scripted_sample(11000000)};
  b.trip_counts[0] = 1;
  b.trip_counts[2] = 2;
  b.bundles_written = 3;
  b.metrics = &m;
  b.timeseries = ts.get();
  std::string doc = flight_bundle_json(b);
  const std::size_t pid = doc.find("\"pid\":") + 6;
  doc.replace(pid, doc.find(',', pid) - pid, "0");
  EXPECT_EQ(doc, R"G({"flight_bundle":1,"reason":"manual","detail":"level 2 \"stuck\"\tfor 3ms","build_flags":"golden","scheduler":"prompt","pid":0,"inject_seed":42,"bundles_written":3,"trips":{"promptness":1,"aging_stall":0,"wake_storm":2,"census_leak":0},"trigger":{"t_ns":11000000,"bitfield":"0x6","num_levels":4,"num_workers":2,"sleepers":1,"wakeups":17,"zero_transitions":5,"tasks_run":400,"suspended":3,"resumable":1,"susp_age_ns":{"p50":1000,"p99":9000,"max":12000},"res_age_ns":{"p50":2000,"p99":2000,"max":2000},"res_oldest":{"level":2,"age_ns":2000},"io_armed":4,"timers_pending":1,"workers":[{"state":"working","level":1},{"state":"stealing","level":0}],"levels":{"1":{"pool":2,"mug":1,"census":0},"2":{"pool":0,"mug":0,"census":3}}},"samples":[{"t_ns":1000000,"bitfield":"0x6","num_levels":4,"num_workers":2,"sleepers":1,"wakeups":17,"zero_transitions":5,"tasks_run":400,"suspended":3,"resumable":1,"susp_age_ns":{"p50":1000,"p99":9000,"max":12000},"res_age_ns":{"p50":2000,"p99":2000,"max":2000},"res_oldest":{"level":2,"age_ns":2000},"io_armed":4,"timers_pending":1,"workers":[{"state":"working","level":1},{"state":"stealing","level":0}],"levels":{"1":{"pool":2,"mug":1,"census":0},"2":{"pool":0,"mug":0,"census":3}}},{"t_ns":11000000,"bitfield":"0x6","num_levels":4,"num_workers":2,"sleepers":1,"wakeups":17,"zero_transitions":5,"tasks_run":400,"suspended":3,"resumable":1,"susp_age_ns":{"p50":1000,"p99":9000,"max":12000},"res_age_ns":{"p50":2000,"p99":2000,"max":2000},"res_oldest":{"level":2,"age_ns":2000},"io_armed":4,"timers_pending":1,"workers":[{"state":"working","level":1},{"state":"stealing","level":0}],"levels":{"1":{"pool":2,"mug":1,"census":0},"2":{"pool":0,"mug":0,"census":3}}}],"latency":{"levels":[{"level":1,"count":4,"total_us":{"p50":35.3,"p90":120.8,"p99":120.8,"max":120.0,"mean":55.8},"phases":{"queueing":{"count":4,"sum_us":22.3,"p50":3.5,"p99":12.0,"max":12.0},"executing":{"count":4,"sum_us":133.8,"p50":21.2,"p99":72.7,"max":72.0},"runnable":{"count":0,"sum_us":0.0,"p50":0.0,"p99":0.0,"max":0.0},"suspended_io":{"count":4,"sum_us":66.9,"p50":10.6,"p99":36.4,"max":36.0},"suspended_sync":{"count":0,"sum_us":0.0,"p50":0.0,"p99":0.0,"max":0.0}},"worst":[{"id":11,"total_us":120.0,"hops_dropped":0,"hops":[{"t_us":0.0,"phase":"queueing","where":0},{"t_us":12.0,"phase":"executing","where":1},{"t_us":40.0,"phase":"suspended_io","where":-32768},{"t_us":100.0,"phase":"executing","where":0}]},{"id":14,"total_us":60.0,"hops_dropped":0,"hops":[{"t_us":0.0,"phase":"queueing","where":0}]},{"id":12,"total_us":35.0,"hops_dropped":2,"hops":[{"t_us":0.0,"phase":"queueing","where":0},{"t_us":3.0,"phase":"executing","where":1}]},{"id":13,"total_us":8.0,"hops_dropped":0,"hops":[{"t_us":0.0,"phase":"queueing","where":1}]}]},{"level":2,"count":1,"total_us":{"p50":2523.1,"p90":2523.1,"p99":2523.1,"max":2500.0,"mean":2500.0},"phases":{"queueing":{"count":1,"sum_us":250.0,"p50":251.9,"p99":251.9,"max":250.0},"executing":{"count":1,"sum_us":1500.0,"p50":1507.3,"p99":1507.3,"max":1500.0},"runnable":{"count":0,"sum_us":0.0,"p50":0.0,"p99":0.0,"max":0.0},"suspended_io":{"count":1,"sum_us":750.0,"p50":753.7,"p99":753.7,"max":750.0},"suspended_sync":{"count":0,"sum_us":0.0,"p50":0.0,"p99":0.0,"max":0.0}},"worst":[{"id":21,"total_us":2500.0,"hops_dropped":0,"hops":[{"t_us":0.0,"phase":"queueing","where":0},{"t_us":1200.0,"phase":"runnable","where":1}]}]}]},"parallelism":{"compiled_in":)G" + tf(spanprof_compiled_in()) +
                     R"G(,"requests":3,"work_ms":9.350,"span_ms":2.640,"levels":[{"level":1,"count":2,"work_us":{"p50":50.2,"p99":303.1,"mean":175.0},"span_us":{"p50":40.4,"p99":100.4,"mean":70.0},"bspan_us":{"p50":45.1,"p99":110.6},"parallelism":{"p10":1.263,"p50":1.263,"p90":3.007},"worst":[{"id":12,"work_us":50.0,"span_us":40.0,"bspan_us":45.0,"par":1.250},{"id":11,"work_us":300.0,"span_us":100.0,"bspan_us":110.0,"par":3.000}]},{"level":2,"count":1,"work_us":{"p50":9044.0,"p99":9044.0,"mean":9000.0},"span_us":{"p50":2523.1,"p99":2523.1,"mean":2500.0},"bspan_us":{"p50":2523.1,"p99":2523.1},"parallelism":{"p10":3.615,"p50":3.615,"p90":3.615},"worst":[{"id":21,"work_us":9000.0,"span_us":2500.0,"bspan_us":2500.0,"par":3.600}]}]},"metrics_stat":"STAT l1_steals 3\nSTAT l1_mugs 2\nSTAT l1_abandons 1\nSTAT l1_resumes 2\nSTAT l1_suspends 2\nSTAT l1_prompt_count 2\nSTAT l1_prompt_p50_us 1\nSTAT l1_prompt_p99_us 251\nSTAT l1_prompt_max_us 250\nSTAT l1_aging_count 1\nSTAT l1_aging_p50_us 42\nSTAT l1_aging_p99_us 42\nSTAT l1_aging_max_us 42\nSTAT l1_par_count 2\nSTAT l1_work_p50_us 50\nSTAT l1_span_p50_us 40\nSTAT l1_bspan_p50_us 45\nSTAT l1_par_p50_milli 1263\nSTAT l1_par_p10_milli 1263\nSTAT l2_steals 1\nSTAT l2_mugs 0\nSTAT l2_abandons 0\nSTAT l2_resumes 0\nSTAT l2_suspends 0\nSTAT l2_par_count 1\nSTAT l2_work_p50_us 9043\nSTAT l2_span_p50_us 2523\nSTAT l2_bspan_p50_us 2523\nSTAT l2_par_p50_milli 3615\nSTAT l2_par_p10_milli 3615\nSTAT io_fd_probes 7\nSTAT io_timers_sharded 2\nSTAT io_armed_ops 3\nSTAT wd_samples 2\nSTAT wd_sleepers 1\nSTAT wd_wakeups 0\nSTAT wd_zero_transitions 0\nSTAT wd_suspended 0\nSTAT wd_resumable 0\nSTAT wd_susp_age_max_us 15\nSTAT wd_res_age_max_us 0\nSTAT wd_active_levels 0\nSTAT wd_io_armed 0\nSTAT wd_timers_pending 0\nSTAT wd_trips_promptness 0\nSTAT wd_trips_aging_stall 0\nSTAT wd_trips_wake_storm 0\nSTAT wd_trips_census_leak 0\nSTAT wd_bundles 0\n","timeseries":{"timeseries":1,"scheduler":"prompt","epoch_ms":100,"capacity":4,"epochs_closed":2,"epochs":[{"seq":0,"t_ns":1,"duration_ns":0,"steals":4,"mugs":2,"abandons":1,"resumes":2,"io_submits":1,"io_completes":0,"sp_reqs":3,"sp_work_ns":9350000,"sp_span_ns":2640000,"sleepers":1,"io_armed":4,"timers_pending":1,"bitfield":"0x6","levels":{"1":{"count":3,"p50_ns":35327,"p99_ns":120831,"max_ns":120000,"pool":2,"mug":1},"2":{"count":1,"p50_ns":2523135,"p99_ns":2523135,"max_ns":2500000,"pool":0,"mug":0}}},{"seq":1,"t_ns":100000001,"duration_ns":100000000,"steals":0,"mugs":0,"abandons":0,"resumes":0,"io_submits":0,"io_completes":0,"sp_reqs":0,"sp_work_ns":0,"sp_span_ns":0,"sleepers":1,"io_armed":4,"timers_pending":1,"bitfield":"0x6","levels":{"1":{"count":1,"p50_ns":60415,"p99_ns":60415,"max_ns":60415,"pool":2,"mug":1}}}]}
}
)G");
}

}  // namespace
}  // namespace icilk::obs
