// The exposition endpoint end to end: a MetricsHttpServer answering real
// HTTP over TCP (Prometheus text on /metrics, JSON on /latency), and the
// minicached integration (`stats icilk latency` + metrics_port wiring).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "apps/memcached/icilk_server.hpp"
#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "net/metrics_http.hpp"
#include "net/socket.hpp"
#include "obs/reqtrace.hpp"

namespace icilk {
namespace {

using namespace std::chrono_literals;

/// Blocking one-shot HTTP request over the nonblocking client socket.
std::string http_get(int port, const std::string& request) {
  const int fd = net::connect_tcp(static_cast<std::uint16_t>(port));
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t w = ::write(fd, request.data() + off, request.size() - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else if (w < 0 && errno != EAGAIN) {
      ADD_FAILURE() << "write error " << errno;
      break;
    }
  }
  std::string got;
  char buf[8192];
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "timeout; got: " << got;
      break;
    }
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      got.append(buf, static_cast<std::size_t>(r));
    } else if (r == 0) {
      break;  // server closes after the response
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      std::this_thread::sleep_for(1ms);
    } else {
      ADD_FAILURE() << "read error " << errno;
      break;
    }
  }
  ::close(fd);
  return got;
}

struct MetricsHttpTest : ::testing::Test {
  void SetUp() override {
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.num_levels = 4;
    rt = std::make_unique<Runtime>(cfg, std::make_unique<PromptScheduler>());
    http = std::make_unique<net::MetricsHttpServer>(
        *rt, nullptr, net::MetricsHttpServer::Config{});
    ASSERT_GT(http->port(), 0);
  }
  void TearDown() override {
    if (http) http->stop();
    http.reset();
    if (rt) rt->shutdown();
  }

  std::unique_ptr<Runtime> rt;
  std::unique_ptr<net::MetricsHttpServer> http;
};

TEST_F(MetricsHttpTest, MetricsEndpointServesPrometheusText) {
  // Complete one attributed request so request series exist.
  rt->submit(1, [&] {
    rt->req_begin();
    spawn([] {
      volatile unsigned x = 0;
      for (int i = 0; i < 100000; ++i) x = x + i;
    });
    sync();
    rt->req_end();
  }).get();

  const std::string resp =
      http_get(http->port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("icilk_events_total"), std::string::npos);
  EXPECT_NE(resp.find("icilk_trace_ring_recorded_total"), std::string::npos);
  if (obs::compiled_in()) {
    EXPECT_NE(resp.find("icilk_request_latency_seconds"), std::string::npos);
    EXPECT_NE(resp.find("icilk_request_phase_seconds"), std::string::npos);
    EXPECT_NE(resp.find("phase=\"executing\""), std::string::npos);
  }
}

TEST_F(MetricsHttpTest, LatencyEndpointServesJsonTimelines) {
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "ICILK_OBS=OFF";
  }
  rt->submit(2, [&] {
    rt->req_begin();
    rt->req_end();
  }).get();

  const std::string resp =
      http_get(http->port(), "GET /latency HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"levels\":["), std::string::npos);
  EXPECT_NE(resp.find("\"level\":2"), std::string::npos);
  EXPECT_NE(resp.find("\"worst\":["), std::string::npos);
  EXPECT_NE(resp.find("\"hops\":["), std::string::npos);
}

TEST_F(MetricsHttpTest, UnknownPathAndMethodAreRejected) {
  const std::string notfound =
      http_get(http->port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(notfound.find("404"), std::string::npos);
  const std::string badmethod =
      http_get(http->port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(badmethod.find("405"), std::string::npos);
}

// ---- minicached integration ----

TEST(McMetricsHttp, StatsIcilkLatencyAndMetricsPort) {
  apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = 2;
  cfg.rt.num_io_threads = 1;
  cfg.rt.num_levels = 2;
  cfg.metrics_port = 0;  // ephemeral
  auto server = std::make_unique<apps::ICilkMcServer>(
      cfg, std::make_unique<PromptScheduler>());
  ASSERT_GT(server->metrics_port(), 0);

  // Drive a few commands so requests complete at the connection priority.
  {
    const int fd = net::connect_tcp(static_cast<std::uint16_t>(server->port()));
    ASSERT_GE(fd, 0);
    const std::string cmds = "set k 0 0 3\r\nabc\r\nget k\r\n";
    std::size_t off = 0;
    while (off < cmds.size()) {
      const ssize_t w = ::write(fd, cmds.data() + off, cmds.size() - off);
      if (w > 0) off += static_cast<std::size_t>(w);
      else if (w < 0 && errno != EAGAIN) break;
    }
    std::string got;
    char buf[1024];
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (got.find("END\r\n") == std::string::npos &&
           std::chrono::steady_clock::now() < deadline) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r > 0) got.append(buf, static_cast<std::size_t>(r));
      else if (r == 0) break;
      else std::this_thread::sleep_for(1ms);
    }
    EXPECT_NE(got.find("STORED"), std::string::npos);
    ::close(fd);
  }

  if (obs::compiled_in()) {
    // `stats icilk latency` over the kv protocol.
    const int fd = net::connect_tcp(static_cast<std::uint16_t>(server->port()));
    ASSERT_GE(fd, 0);
    const std::string cmd = "stats icilk latency\r\n";
    ASSERT_EQ(::write(fd, cmd.data(), cmd.size()),
              static_cast<ssize_t>(cmd.size()));
    std::string got;
    char buf[4096];
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (got.find("END\r\n") == std::string::npos &&
           std::chrono::steady_clock::now() < deadline) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r > 0) got.append(buf, static_cast<std::size_t>(r));
      else if (r == 0) break;
      else std::this_thread::sleep_for(1ms);
    }
    ::close(fd);
    EXPECT_NE(got.find("STAT icilk_l"), std::string::npos) << got;
    EXPECT_NE(got.find("_req_count "), std::string::npos) << got;
    EXPECT_NE(got.find("_phase_executing_"), std::string::npos) << got;

    // The HTTP endpoint shares the server's reactor and runtime.
    const std::string metrics = http_get(
        server->metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(metrics.find("icilk_request_latency_seconds"),
              std::string::npos);
    EXPECT_NE(metrics.find("minicached_items"), std::string::npos);
    const std::string latency = http_get(
        server->metrics_port(), "GET /latency HTTP/1.0\r\n\r\n");
    EXPECT_NE(latency.find("\"levels\":["), std::string::npos);
  }

  server->stop();
}

}  // namespace
}  // namespace icilk
