// HTTP observability endpoints over real TCP: the /parallelism work/span
// document, the /timeseries?n=K ring-window query parameter, and every
// JSON surface parsed by obs/json's strict reader, including the bodies
// served with the timeseries ring or the watchdog off.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "net/metrics_http.hpp"
#include "net/socket.hpp"
#include "obs/json.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spanprof.hpp"
#include "obs/timeseries.hpp"

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

/// Counts occurrences of `needle` in `hay`.
std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// The parsed body of an HTTP response; fails the test when it is not
/// one well-formed JSON document.
obs::json::Value json_body(const std::string& resp) {
  obs::json::Value v;
  std::string err;
  const std::size_t at = resp.find("\r\n\r\n");
  EXPECT_NE(at, std::string::npos) << resp;
  if (at == std::string::npos) return v;
  EXPECT_TRUE(obs::json::parse(resp.substr(at + 4), v, &err))
      << err << "\n" << resp;
  return v;
}

struct ObsEndpointsTest : ::testing::Test {
  void SetUp() override { start(/*timeseries=*/true, /*watchdog=*/false); }

  void start(bool timeseries, bool watchdog) {
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.num_levels = 4;
    // Huge epoch: the sampler never closes one on its own; the tests
    // close epochs deterministically with close_epoch().
    cfg.timeseries_enabled = timeseries;
    cfg.timeseries_epoch_ms = 3600 * 1000;
    cfg.timeseries_epochs = 16;
    cfg.watchdog_enabled = watchdog;
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

  void run_one_request() {
    rt->submit(1, [&] {
      rt->req_begin();
      spawn([] {
        volatile unsigned x = 0;
        for (int i = 0; i < 200000; ++i) x = x + i;
      });
      sync();
      rt->req_end();
    }).get();
  }

  std::unique_ptr<Runtime> rt;
  std::unique_ptr<net::MetricsHttpServer> http;
};

TEST_F(ObsEndpointsTest, ParallelismEndpointServesJson) {
  run_one_request();
  const std::string resp =
      http_get(http->port(), "GET /parallelism HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"compiled_in\":"), std::string::npos);
  EXPECT_NE(resp.find("\"levels\":["), std::string::npos);
  if (obs::compiled_in()) {
    EXPECT_NE(resp.find("\"compiled_in\":true"), std::string::npos);
    EXPECT_NE(resp.find("\"level\":1"), std::string::npos);
    EXPECT_NE(resp.find("\"parallelism\":{"), std::string::npos);
    EXPECT_NE(resp.find("\"worst\":["), std::string::npos);
  }
}

TEST_F(ObsEndpointsTest, ParallelismSurfacesInPrometheusText) {
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "ICILK_OBS=OFF: hooks compiled out";
  }
  run_one_request();
  const std::string resp =
      http_get(http->port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("icilk_request_work_seconds"), std::string::npos);
  EXPECT_NE(resp.find("icilk_request_span_seconds"), std::string::npos);
  EXPECT_NE(resp.find("icilk_request_burdened_span_seconds"),
            std::string::npos);
  EXPECT_NE(resp.find("icilk_request_parallelism"), std::string::npos);
}

TEST_F(ObsEndpointsTest, TimeseriesWindowParamBoundsEpochs) {
  obs::TimeSeries* ts = rt->timeseries();
  ASSERT_NE(ts, nullptr);
  run_one_request();
  for (int i = 0; i < 5; ++i) ts->close_epoch(obs::WdSample{});

  // Unbounded: all five closed epochs.
  std::string resp =
      http_get(http->port(), "GET /timeseries HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("\"epochs_closed\":5"), std::string::npos);
  EXPECT_EQ(count_of(resp, "\"seq\":"), 5u);

  // n=2 keeps only the NEWEST two (seq 3 and 4).
  resp = http_get(http->port(), "GET /timeseries?n=2 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(count_of(resp, "\"seq\":"), 2u);
  EXPECT_NE(resp.find("\"seq\":3"), std::string::npos);
  EXPECT_NE(resp.find("\"seq\":4"), std::string::npos);
  EXPECT_EQ(resp.find("\"seq\":0,"), std::string::npos);
  // The header still reports the full ring state.
  EXPECT_NE(resp.find("\"epochs_closed\":5"), std::string::npos);

  // n=0 and n larger than the ring both mean "everything".
  resp = http_get(http->port(), "GET /timeseries?n=0 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(count_of(resp, "\"seq\":"), 5u);
  resp = http_get(http->port(), "GET /timeseries?n=99 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(count_of(resp, "\"seq\":"), 5u);
  // A number past a long's range falls back to the default (everything).
  resp = http_get(http->port(),
                  "GET /timeseries?n=99999999999999999999999 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(count_of(resp, "\"seq\":"), 5u);
}

TEST_F(ObsEndpointsTest, TimeseriesEpochsCarrySpanprofDeltas) {
  obs::TimeSeries* ts = rt->timeseries();
  ASSERT_NE(ts, nullptr);
  run_one_request();
  ts->close_epoch(obs::WdSample{});
  const std::string resp =
      http_get(http->port(), "GET /timeseries?n=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("\"sp_reqs\":"), std::string::npos);
  EXPECT_NE(resp.find("\"sp_work_ns\":"), std::string::npos);
  EXPECT_NE(resp.find("\"sp_span_ns\":"), std::string::npos);
  if (obs::compiled_in()) {
    // The one request measured above must land in the one closed epoch.
    EXPECT_NE(resp.find("\"sp_reqs\":1"), std::string::npos);
  }
}

TEST_F(ObsEndpointsTest, JsonSurfacesParse) {
  run_one_request();
  rt->timeseries()->close_epoch(obs::WdSample{});
  for (const char* path : {"/latency", "/parallelism", "/timeseries"}) {
    const obs::json::Value doc = json_body(http_get(
        http->port(), std::string("GET ") + path + " HTTP/1.0\r\n\r\n"));
    EXPECT_EQ(doc.type, obs::json::Value::Type::kObject) << path;
  }
  // Watchdog off: the not-running member, with the profiler spliced in.
  const obs::json::Value health =
      json_body(http_get(http->port(), "GET /health HTTP/1.0\r\n\r\n"));
  const obs::json::Value* wd = health.find("watchdog");
  ASSERT_NE(wd, nullptr);
  ASSERT_NE(wd->find("running"), nullptr);
  EXPECT_FALSE(wd->find("running")->b);
  EXPECT_NE(health.find("profiler"), nullptr);

  if (rt->profiler() == nullptr) return;  // /profile answers 501 text
  const obs::json::Value prof = json_body(http_get(
      http->port(), "GET /profile?seconds=1&format=json HTTP/1.0\r\n\r\n"));
  EXPECT_NE(prof.find("stacks"), nullptr);
  EXPECT_NE(prof.find("modules"), nullptr);
}

/// The other side of each fallback: no timeseries ring, watchdog running.
struct ObsEndpointsSwappedTest : ObsEndpointsTest {
  void SetUp() override { start(/*timeseries=*/false, /*watchdog=*/true); }
};

TEST_F(ObsEndpointsSwappedTest, FallbackAndLiveBodiesParse) {
  const obs::json::Value ts = json_body(
      http_get(http->port(), "GET /timeseries HTTP/1.0\r\n\r\n"));
  ASSERT_NE(ts.find("epochs"), nullptr);
  EXPECT_TRUE(ts.find("epochs")->items.empty());
  ASSERT_NE(ts.find("scheduler"), nullptr);
  EXPECT_EQ(ts.find("scheduler")->str, rt->scheduler().name());

  const obs::json::Value health =
      json_body(http_get(http->port(), "GET /health HTTP/1.0\r\n\r\n"));
  const obs::json::Value* wd = health.find("watchdog");
  ASSERT_NE(wd, nullptr);
  if (rt->watchdog() != nullptr) {
    EXPECT_NE(wd->find("gauges"), nullptr);
    EXPECT_NE(wd->find("trips"), nullptr);
  }
  EXPECT_NE(health.find("profiler"), nullptr);
}

TEST_F(ObsEndpointsTest, NotFoundHintNamesTheNewSurfaces) {
  const std::string resp =
      http_get(http->port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("404 Not Found"), std::string::npos);
  EXPECT_NE(resp.find("/parallelism"), std::string::npos);
  EXPECT_NE(resp.find("/timeseries?n=K"), std::string::npos);
}

}  // namespace
}  // namespace icilk
