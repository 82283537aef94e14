// Attribution smoke check: run minicached under real TCP load, then
// verify the whole exposition chain end to end —
//
//   * /metrics serves non-empty request phase histograms (at conn_priority, level 1),
//   * /latency serves parseable worst-K timelines,
//   * the server-attributed latency agrees with what the clients measured
//     (attributed time is bounded by client-observed time, and accounts
//     for the bulk of it — the gap is kernel/network/parse overhead that
//     no scheduler-side attribution can see).
//
// Exits nonzero on any violation; scripts/soak.sh runs this as its
// `attribution` phase. Prints RESULT lines for eyeballing.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached/icilk_server.hpp"
#include "concurrent/clock.hpp"
#include "core/prompt_scheduler.hpp"
#include "net/socket.hpp"
#include "obs/reqtrace.hpp"

namespace {

using namespace icilk;
using namespace std::chrono_literals;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

/// Writes all of `s`, then reads until `term` appears (or 10s).
std::string roundtrip(int fd, const std::string& s, const std::string& term) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t w = ::write(fd, s.data() + off, s.size() - off);
    if (w > 0) off += static_cast<std::size_t>(w);
    else if (w < 0 && errno != EAGAIN) return {};
  }
  std::string got;
  char buf[8192];
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (got.find(term) == std::string::npos) {
    if (std::chrono::steady_clock::now() > deadline) return got;
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) got.append(buf, static_cast<std::size_t>(r));
    else if (r == 0) return got;
    else std::this_thread::sleep_for(500us);
  }
  return got;
}

std::string http_get(int port, const char* path) {
  const int fd = net::connect_tcp(static_cast<std::uint16_t>(port));
  if (fd < 0) return {};
  std::string req = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t w = ::write(fd, req.data() + off, req.size() - off);
    if (w > 0) off += static_cast<std::size_t>(w);
    else if (w < 0 && errno != EAGAIN) break;
  }
  std::string got;
  char buf[16384];
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    if (std::chrono::steady_clock::now() > deadline) break;
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) got.append(buf, static_cast<std::size_t>(r));
    else if (r == 0) break;
    else std::this_thread::sleep_for(500us);
  }
  ::close(fd);
  return got;
}

/// First "<metric...> <value>" sample value after `needle`, or -1.
double sample_after(const std::string& text, const std::string& needle) {
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  const std::size_t sp = text.find(' ', pos);
  if (sp == std::string::npos) return -1.0;
  return std::atof(text.c_str() + sp + 1);
}

}  // namespace

int main() {
  if (!obs::compiled_in()) {
    std::printf("RESULT smoke=attribution skipped=obs_off\n");
    return 0;
  }

  apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = 4;
  cfg.rt.num_io_threads = 2;
  cfg.rt.num_levels = 2;
  cfg.metrics_port = 0;
  auto server = std::make_unique<apps::ICilkMcServer>(
      cfg, std::make_unique<PromptScheduler>());
  check(server->metrics_port() > 0, "metrics endpoint came up");

  // ---- client load: closed loop, per-command latency measured ----
  constexpr int kClients = 8;
  constexpr int kRounds = 200;
  std::atomic<std::uint64_t> client_ns{0};
  std::atomic<std::uint64_t> client_ops{0};
  {
    std::vector<std::thread> ts;
    for (int c = 0; c < kClients; ++c) {
      ts.emplace_back([&, c] {
        const int fd =
            net::connect_tcp(static_cast<std::uint16_t>(server->port()));
        if (fd < 0) return;
        const std::string key = "k" + std::to_string(c);
        roundtrip(fd, "set " + key + " 0 0 8\r\nabcdefgh\r\n", "\r\n");
        for (int r = 0; r < kRounds; ++r) {
          const std::uint64_t t0 = now_ns();
          const std::string got = roundtrip(fd, "get " + key + "\r\n",
                                            "END\r\n");
          if (got.find("END\r\n") != std::string::npos) {
            client_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
            client_ops.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ::close(fd);
      });
    }
    for (auto& t : ts) t.join();
  }
  check(client_ops.load() == kClients * kRounds, "all client ops completed");

  // ---- /metrics: phase histograms must be non-empty ----
  const std::string metrics = http_get(server->metrics_port(), "/metrics");
  check(metrics.find("HTTP/1.0 200 OK") != std::string::npos,
        "/metrics returns 200");
  const double req_count =
      sample_after(metrics, "icilk_request_latency_seconds_count");
  check(req_count > 0, "request latency series non-empty");
  const double exec_count = sample_after(
      metrics,
      "icilk_request_phase_seconds_count{level=\"1\",phase=\"executing\"}");
  check(exec_count > 0, "executing phase histogram non-empty");

  // ---- attributed vs client-observed latency ----
  double attributed_s = 0;
  for (const char* phase :
       {"queueing", "executing", "runnable", "suspended_io",
        "suspended_sync"}) {
    const std::string needle =
        std::string(
            "icilk_request_phase_seconds_sum{level=\"1\",phase=\"") +
        phase + "\"}";
    const double v = sample_after(metrics, needle);
    if (v > 0) attributed_s += v;
  }
  const double client_s = static_cast<double>(client_ns.load()) / 1e9;
  std::printf("RESULT smoke=attribution client_ops=%llu client_s=%.4f "
              "attributed_s=%.4f ratio=%.3f\n",
              static_cast<unsigned long long>(client_ops.load()), client_s,
              attributed_s, client_s > 0 ? attributed_s / client_s : 0.0);
  check(attributed_s > 0, "attributed phase time non-zero");
  // Server attribution cannot exceed what clients saw (small slack for
  // clock-edge effects): req_begin fires after the request bytes arrive,
  // so server-side time is a strict subset of the client round trip. The
  // ratio itself is workload-shaped — closed-loop clients spend most of
  // each round trip in the network/poll gap the server never sees — so
  // the per-request MEAN carries the sanity band instead: a minicached
  // get must attribute at least a microsecond and at most the client
  // round-trip mean. The 5%-agreement claim is per-request, enforced by
  // the telescoping invariant tests (tests/obs/).
  check(attributed_s <= client_s * 1.05, "attribution bounded by client");
  const double ops = static_cast<double>(client_ops.load());
  if (ops > 0) {
    const double mean_attr_us = attributed_s / ops * 1e6;
    const double mean_client_us = client_s / ops * 1e6;
    check(mean_attr_us >= 1.0, "attributed mean >= 1us per request");
    check(mean_attr_us <= mean_client_us,
          "attributed mean bounded by client mean");
  }

  // ---- /latency: worst-K must parse ----
  const std::string latency = http_get(server->metrics_port(), "/latency");
  check(latency.find("\"levels\":[") != std::string::npos,
        "/latency has levels array");
  check(latency.find("\"worst\":[{\"id\":") != std::string::npos,
        "/latency worst-K non-empty");
  check(latency.find("\"hops\":[{\"t_us\":") != std::string::npos,
        "/latency worst-K timelines have hops");
  // Balanced brackets = cheap structural JSON sanity.
  {
    const std::size_t body = latency.find("\r\n\r\n");
    long depth = 0;
    bool bad = body == std::string::npos;
    for (std::size_t i = body + 4; !bad && i < latency.size(); ++i) {
      const char ch = latency[i];
      if (ch == '{' || ch == '[') ++depth;
      if (ch == '}' || ch == ']') --depth;
      if (depth < 0) bad = true;
    }
    check(!bad && depth == 0, "/latency JSON brackets balance");
  }

  // ---- trace-ring drop surfacing ----
  check(metrics.find("icilk_trace_ring_dropped_total") != std::string::npos,
        "/metrics surfaces ring drop counters");

  server->stop();
  if (g_failures == 0) std::printf("attribution smoke OK\n");
  return g_failures == 0 ? 0 : 1;
}
