#include "apps/memcached/icilk_server.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/spanprof.hpp"

namespace icilk::apps {

using namespace std::chrono_literals;

ICilkMcServer::ICilkMcServer(const Config& cfg,
                             std::unique_ptr<Scheduler> sched)
    : cfg_(cfg),
      rt_(std::make_unique<Runtime>(
          cfg.rt, sched != nullptr ? std::move(sched)
                                   : make_scheduler_or_default())),
      reactor_(std::make_unique<IoReactor>(*rt_, cfg.rt.num_io_threads)),
      store_(cfg.store) {
  listen_fd_ = net::listen_tcp(cfg_.port);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "icilk-mc: listen failed: %d\n", listen_fd_);
    std::abort();
  }
  port_ = net::local_port(listen_fd_);
  if (cfg_.metrics_port >= 0) {
    net::MetricsHttpServer::Config mc;
    mc.port = static_cast<std::uint16_t>(cfg_.metrics_port);
    metrics_http_ = std::make_unique<net::MetricsHttpServer>(
        *rt_, reactor_.get(), mc, [this] { return store_metrics_text(); });
  }
  acceptor_done_ =
      rt_->submit(cfg_.conn_priority, [this] { acceptor_routine(); });
  crawler_done_ =
      rt_->submit(cfg_.bg_priority, [this] { crawler_routine(); });
  if (!cfg_.snapshot_path.empty()) {
    snapshot_done_ =
        rt_->submit(cfg_.bg_priority, [this] { snapshot_routine(); });
  }
}

ICilkMcServer::~ICilkMcServer() { stop(); }

void ICilkMcServer::track(int fd) {
  LockGuard<SpinLock> g(conns_mu_);
  conn_fds_.insert(fd);
  active_conns_.fetch_add(1, std::memory_order_relaxed);
}

void ICilkMcServer::untrack(int fd) {
  LockGuard<SpinLock> g(conns_mu_);
  conn_fds_.erase(fd);
  // Release pairs with stop()'s acquire load: when the count reads zero,
  // every routine's teardown (close_fd's cancel + generation bump) is
  // ordered before reactor_.reset(). Relaxed here let reactor destruction
  // race the tail of a closing connection (caught by the chaos soak).
  active_conns_.fetch_sub(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Task routines: the whole server logic, in straight-line code.
// ---------------------------------------------------------------------------

void ICilkMcServer::acceptor_routine() {
  // Persistent accept errors (EMFILE/ENFILE under fd exhaustion) would
  // otherwise spin this task — and its worker — at full speed re-failing
  // the same syscall. Back off with a reactor sleep (which yields the
  // worker to real work) and ramp the delay while the error persists.
  auto backoff = std::chrono::milliseconds(1);
  for (;;) {
    const ssize_t cfd = reactor_->accept(listen_fd_);
    if (stop_.load(std::memory_order_acquire)) {
      if (cfd >= 0) ::close(static_cast<int>(cfd));
      return;
    }
    if (cfd < 0) {
      reactor_->sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
      continue;
    }
    backoff = std::chrono::milliseconds(1);
    net::set_nodelay(static_cast<int>(cfd));
    track(static_cast<int>(cfd));
    // Each connection becomes a future routine: the scheduler
    // time-multiplexes all of them over the worker pool.
    fut_create([this, fd = static_cast<int>(cfd)] {
      connection_routine(fd);
    });
  }
}

void ICilkMcServer::connection_routine(int fd) {
  kv::RequestParser parser;
  kv::Request req;
  // Vectored-write response sink: protocol text stays contiguous, large
  // GET values are spliced by move and leave through writev untouched
  // (kv/response.hpp). `iov` is per-connection scratch, rebuilt per batch.
  kv::Response out;
  std::vector<struct iovec> iov;
  char buf[16384];
  for (;;) {
    // Synchronous-looking read: blocks THIS TASK, not the worker.
    std::uint64_t read_done_ns = 0;
    const ssize_t n = reactor_->read_some(fd, buf, sizeof(buf), &read_done_ns);
    if (n <= 0) break;  // EOF, reset, or shutdown via stop()
    // One read batch = one attributed request: queueing/executing/
    // suspended-io phases from here to the response write land in the
    // per-level histograms (and the worst-K timeline reservoir). The clock
    // starts when the read syscall returned, so queueing covers completion
    // publish, wake and dispatch of this task.
    rt_->req_begin(read_done_ns);
    parser.feed(buf, static_cast<std::size_t>(n));
    out.clear();
    bool keep = true;
    std::size_t commands = 0;
    while (parser.next(req)) {
      ++commands;
      if (req.verb == kv::Verb::Stats) {
        if (!req.keys.empty() && req.keys[0] == "icilk") {
          std::string reply;
          const obs::StatLines st(reply, "icilk_", "\r\n");
          const std::string sub = req.keys.size() > 1 ? req.keys[1] : "";
          if (sub == "latency") {
            // `stats icilk latency [reset]`: request-latency attribution
            // only — per-level/per-phase percentiles plus worst-K
            // timelines. `reset` renders first, then drains the worst-K
            // reservoirs so long soaks shed stale pre-burst outliers.
            reply += obs::latency_stats_text(rt_->metrics(), "icilk_", "\r\n");
            if (req.keys.size() > 2 && req.keys[2] == "reset") {
              rt_->metrics().reset_worst();
              st.add("latency_reset", 1);
            }
          } else if (sub == "parallelism") {
            // `stats icilk parallelism`: per-level work/span/parallelism
            // percentiles plus the worst-K LEAST-parallel requests
            // (obs/spanprof.hpp). Empty (just the flag) when the profiler
            // is compiled out or no request completed yet.
            st.add("sp_compiled_in", obs::compiled_in());
            reply += obs::parallelism_stats_text(rt_->metrics(), "icilk_",
                                                 "\r\n");
          } else if (sub == "timeseries") {
            // `stats icilk timeseries`: the latest closed epoch of the
            // windowed telemetry ring (per-level p50/p99/max + counter
            // deltas); `/timeseries` on the metrics port carries the
            // full ring as JSON.
            if (const obs::TimeSeries* ts = rt_->timeseries()) {
              reply += ts->stats_text("icilk_", "\r\n");
            } else {
              st.add("ts_running", 0);
            }
          } else if (sub == "health") {
            // `stats icilk health`: watchdog sampler state, invariant
            // trips, and the idle-sleep counters the detectors watch.
            reply += health_stats_text();
          } else if (sub == "dump") {
            // `stats icilk dump`: force a flight-recorder bundle now.
            obs::Watchdog* wd = rt_->watchdog();
            const std::string path =
                wd != nullptr ? wd->dump_now("stats_icilk_dump") : "";
            st.add("wd_dump_ok", !path.empty());
            if (!path.empty()) st.add("wd_dump_path", path);
          } else if (sub == "profile") {
            // `stats icilk profile [seconds] [hz]`: open a profiler
            // window (this handler task sleeps on the reactor; workers
            // keep serving), write the merged folded-stack file next to
            // the flight bundles, and return its path — the dump idiom.
            long seconds = 2, hz = 0;
            if (req.keys.size() > 2) {
              seconds = std::strtol(req.keys[2].c_str(), nullptr, 10);
            }
            if (req.keys.size() > 3) {
              hz = std::strtol(req.keys[3].c_str(), nullptr, 10);
            }
            if (seconds < 1) seconds = 1;
            if (seconds > 120) seconds = 120;
            obs::Profiler* prof = rt_->profiler();
            if (prof != nullptr && prof->start(static_cast<int>(hz))) {
              reactor_->sleep_for(std::chrono::seconds(seconds));
              const obs::ProfileReport rep = prof->stop();
              std::string dir = rt_->config().watchdog_bundle_dir;
              if (dir.empty()) dir = ".";
              const std::string path = dir + "/icilk_profile_" +
                                       std::to_string(rep.window_ns) +
                                       ".folded";
              const bool wrote = obs::Profiler::write_folded(rep, path);
              st.add("prof_ok", wrote).add("prof_samples", rep.samples);
              st.add("prof_dropped", rep.dropped);
              if (wrote) st.add("prof_path", path);
            } else {
              // Compiled out, or a window is already open.
              st.add("prof_ok", 0);
            }
          } else {
            // `stats icilk`: only the scheduler-observability group.
            reply += icilk_stats_text();
          }
          out += reply;
          out += "END\r\n";
          continue;
        }
        // Plain `stats`: the kv stats with the scheduler group appended.
        if (!kv::execute(req, store_, out, icilk_stats_text())) {
          keep = false;
          break;
        }
        continue;
      }
      if (!kv::execute(req, store_, out)) {
        keep = false;
        break;
      }
    }
    if (!out.empty()) {
      ssize_t wrc;
      if (out.flat()) {
        // No spliced values (misses, small values, control replies): the
        // plain single-buffer write path, exactly as before.
        const std::string_view v = out.flat_view();
        wrc = reactor_->write_all(fd, v.data(), v.size());
      } else {
        out.build_iov(iov);
        wrc = reactor_->writev_all(fd, iov.data(),
                                   static_cast<int>(iov.size()));
      }
      if (wrc < 0) {
        rt_->req_abort();
        break;
      }
    }
    // Partial commands (parser still hungry) don't count as a request.
    if (commands > 0) {
      rt_->req_end();
    } else {
      rt_->req_abort();
    }
    if (!keep) break;  // quit command
  }
  // close_fd (not a bare ::close): cancels anything still armed and bumps
  // the fd-slot generation, so the number can be reused by the next
  // connection without inheriting stale state.
  reactor_->close_fd(fd);
  untrack(fd);
}

void ICilkMcServer::crawler_routine() {
  // The background LRU crawler as a low-priority task (Section 3's
  // background threads, expressed in the task model).
  while (!stop_.load(std::memory_order_acquire)) {
    reactor_->sleep_for(
        std::chrono::milliseconds(cfg_.crawl_interval_ms));
    if (stop_.load(std::memory_order_acquire)) break;
    store_.crawl_expired(64);
  }
}

void ICilkMcServer::snapshot_routine() {
  // Periodic persistence at background priority: serialize, write to a
  // temp file, rename into place (crash-consistent). Regular-file writes
  // are not pollable, so plain syscalls are used — this is exactly the
  // low-priority bulk work promptness exists to step around.
  const std::string tmp = cfg_.snapshot_path + ".tmp";
  while (!stop_.load(std::memory_order_acquire)) {
    reactor_->sleep_for(
        std::chrono::milliseconds(cfg_.snapshot_interval_ms));
    if (stop_.load(std::memory_order_acquire)) break;
    const std::string blob = store_.serialize();
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) continue;
    std::size_t off = 0;
    bool ok = true;
    while (off < blob.size()) {
      const ssize_t w = ::write(fd, blob.data() + off, blob.size() - off);
      if (w <= 0) {
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(w);
    }
    ::close(fd);
    if (ok && ::rename(tmp.c_str(), cfg_.snapshot_path.c_str()) == 0) {
      snapshots_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------

std::string ICilkMcServer::icilk_stats_text() const {
  const StatsSnapshot s = rt_->stats_snapshot();
  std::string out;
  const obs::StatLines st(out, "icilk_", "\r\n");
  // Active policy first: every capture self-identifies its scheduler.
  st.add("scheduler", rt_->scheduler().name());
  st.add("steals", s.steals).add("mugs", s.mugs).add("abandons", s.abandons);
  st.add("spawns", s.spawns).add("sleeps", s.sleeps);
  st.add("failed_probes", s.failed_probes);
  st.add("gets_suspended", s.gets_suspended).add("tasks_run", s.tasks_run);
  st.add("deques_created", s.deques_created);
  st.fixed("work_s", s.work_s, 6).fixed("sched_s", s.sched_s, 6);
  st.fixed("waste_s", s.waste_s, 6);
  st.add("io_ops_submitted", reactor_->ops_submitted_for_test());
  st.add("io_ops_inline", reactor_->ops_inline_for_test());
  // I/O fast-path counters: recycling pools, fd table, timer shards,
  // stack cache (PR 2; the fd/timer counters come via metrics().text()).
  const auto add_pool = [&st](const std::string& which,
                              PoolCountersSnapshot p) {
    st.add(which + "_pool_hits", p.hits)
        .add(which + "_pool_misses", p.misses)
        .fixed(which + "_pool_hit_rate", p.hit_rate(), 4);
  };
  add_pool("io_op", IoReactor::op_pool_stats());
  add_pool("fut", IoReactor::future_pool_stats());
  const auto stk = rt_->stack_pool().cache_stats();
  st.add("stack_local_hits", stk.local_hits)
      .add("stack_global_hits", stk.global_hits)
      .add("stack_misses", stk.misses);
  const auto depths = reactor_->timer_shard_depths();
  for (std::size_t i = 0; i < depths.size(); ++i) {
    if (depths[i] != 0) {
      st.add("io_timer_depth_s" + std::to_string(i), depths[i]);
    }
  }
  for (int k = 0; k < cfg_.rt.num_levels; ++k) {
    const std::int64_t c = rt_->census(static_cast<Priority>(k));
    if (c != 0) st.add("l" + std::to_string(k) + "_census", c);
  }
  // Per-level counters and promptness/aging percentiles.
  out += rt_->metrics().text("icilk_", "\r\n");
  // Request-latency attribution (details via `stats icilk latency`).
  out += obs::latency_stats_text(rt_->metrics(), "icilk_", "\r\n");
  // Trace-ring overflow: nonzero dropped means the rings wrapped and the
  // Chrome trace / flow view is incomplete for the oldest events.
  for (const auto& r : rt_->trace_sink().ring_stats()) {
    if (r.dropped != 0) st.add("trace_dropped_" + r.name, r.dropped);
  }
  return out;
}

std::string ICilkMcServer::health_stats_text() const {
  std::string out;
  const obs::StatLines st(out, "icilk_", "\r\n");
  // Idle-sleep exports straight from the prompt scheduler (present even
  // when the watchdog is off — the fix this surface exists to expose).
  if (const auto* ps =
          dynamic_cast<const PromptScheduler*>(&rt_->scheduler())) {
    st.add("sleepers", ps->sleepers())
        .add("idle_wakeups", ps->idle_wakeups())
        .add("zero_transitions", ps->zero_transitions());
  }
  if (const obs::Watchdog* wd = rt_->watchdog()) {
    out += wd->health_stats_text("icilk_", "\r\n");
  } else {
    st.add("wd_running", 0).add("wd_compiled_in", obs::compiled_in());
  }
  // Profiler state: rate, window count, and — the reason this line
  // exists — the dropped-sample counter, so ring overflow under overload
  // is visible rather than silently biasing profiles.
  out += obs::prof_health_stats_text(rt_->profiler(), "icilk_", "\r\n");
  return out;
}

int ICilkMcServer::metrics_port() const noexcept {
  return metrics_http_ ? metrics_http_->port() : 0;
}

std::string ICilkMcServer::store_metrics_text() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# TYPE minicached_items gauge\n"
                "minicached_items %zu\n"
                "# TYPE minicached_bytes gauge\n"
                "minicached_bytes %zu\n"
                "# TYPE minicached_connections gauge\n"
                "minicached_connections %d\n",
                store_.item_count(), store_.bytes_used(),
                active_conns_.load(std::memory_order_relaxed));
  return std::string(buf);
}

void ICilkMcServer::stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;

  // Unblock the acceptor with a throwaway connection.
  const int kick = net::connect_tcp(static_cast<std::uint16_t>(port_));
  if (kick >= 0) ::close(kick);
  acceptor_done_.get();

  // Force live connections' pending reads to complete: shutdown (not
  // close) so the reactor sees EOF and the routines exit cleanly.
  {
    LockGuard<SpinLock> g(conns_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  while (active_conns_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(1ms);
  }
  crawler_done_.get();
  if (snapshot_done_.valid()) snapshot_done_.get();
  if (metrics_http_) metrics_http_->stop();
  ::close(listen_fd_);

  // Reactor threads stop before the runtime so no completion can race
  // runtime shutdown.
  reactor_.reset();
  rt_->shutdown();
}

}  // namespace icilk::apps
