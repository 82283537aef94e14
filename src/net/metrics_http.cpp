#include "net/metrics_http.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string_view>
#include <thread>

#include "core/api.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"

namespace icilk::net {

using namespace std::chrono_literals;

MetricsHttpServer::MetricsHttpServer(Runtime& rt, IoReactor* shared_reactor,
                                     const Config& cfg, ExtraTextFn extra)
    : rt_(rt),
      owned_reactor_(shared_reactor == nullptr
                         ? std::make_unique<IoReactor>(
                               rt, cfg.io_threads < 1 ? 1 : cfg.io_threads)
                         : nullptr),
      reactor_(shared_reactor != nullptr ? shared_reactor
                                         : owned_reactor_.get()),
      extra_(std::move(extra)),
      priority_(cfg.priority >= 0
                    ? static_cast<Priority>(cfg.priority)
                    : static_cast<Priority>(rt.config().num_levels - 1)) {
  listen_fd_ = listen_tcp(cfg.port);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "metrics-http: listen failed: %d\n", listen_fd_);
    return;
  }
  port_ = local_port(listen_fd_);
  acceptor_done_ = rt_.submit(priority_, [this] { acceptor_routine(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::track(int fd) {
  LockGuard<SpinLock> g(conns_mu_);
  conn_fds_.insert(fd);
  active_conns_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsHttpServer::untrack(int fd) {
  LockGuard<SpinLock> g(conns_mu_);
  conn_fds_.erase(fd);
  active_conns_.fetch_sub(1, std::memory_order_release);
}

void MetricsHttpServer::acceptor_routine() {
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
    set_nodelay(static_cast<int>(cfd));
    track(static_cast<int>(cfd));
    fut_create([this, fd = static_cast<int>(cfd)] {
      connection_routine(fd);
    });
  }
}

void MetricsHttpServer::connection_routine(int fd) {
  // A scrape is itself a request: attribute the handler's own latency so
  // the endpoint shows up in its own phase histograms.
  rt_.req_begin();
  char buf[4096];
  std::size_t have = 0;
  // Scrape requests are one GET with few headers; read until the blank
  // line (or the client half-closes) and answer once.
  while (have < sizeof(buf) - 1) {
    const ssize_t n =
        reactor_->read_some(fd, buf + have, sizeof(buf) - 1 - have);
    if (n <= 0) break;
    have += static_cast<std::size_t>(n);
    buf[have] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  if (have > 0) {
    const std::string resp = respond(buf, have);
    reactor_->write_all(fd, resp.data(), resp.size());
  }
  rt_.req_end();
  reactor_->close_fd(fd);
  untrack(fd);
}

namespace {

/// The value of the first `key=` pair in the query "a=1&b=2", if any.
std::optional<std::string_view> query_value(std::string_view query,
                                            std::string_view key) {
  for (std::size_t at = 0; at < query.size();) {
    const std::size_t amp = std::min(query.find('&', at), query.size());
    const std::string_view pair = query.substr(at, amp - at);
    if (pair.size() > key.size() && pair[key.size()] == '=' &&
        pair.substr(0, key.size()) == key) {
      return pair.substr(key.size() + 1);
    }
    at = amp + 1;
  }
  return std::nullopt;
}

/// The leading decimal digits of `key`'s value, or `fallback` when there
/// are none or they overflow a long.
long query_param(std::string_view query, std::string_view key,
                 long fallback) {
  const std::string_view v = query_value(query, key).value_or("");
  const std::size_t end =
      std::min(v.find_first_not_of("0123456789"), v.size());
  long n = 0;
  const auto res = std::from_chars(v.data(), v.data() + end, n);
  return end > 0 && res.ec == std::errc() ? n : fallback;
}

}  // namespace

std::string MetricsHttpServer::profile_body(std::string_view query, bool& ok,
                                            const char** content_type) {
  ok = false;
  obs::Profiler* prof = rt_.profiler();
  if (prof == nullptr) {
    return "profiler not compiled in (-DICILK_OBS=OFF)\n";
  }
  long seconds = query_param(query, "seconds", 2);
  if (seconds < 1) seconds = 1;
  if (seconds > 120) seconds = 120;
  const long hz = query_param(query, "hz", 0);  // 0 = runtime default
  if (!prof->start(static_cast<int>(hz))) {
    return "profiler busy: a window is already open\n";
  }
  // The handler task parks on a reactor timer for the window; workers
  // keep serving (and being sampled) the whole time.
  reactor_->sleep_for(std::chrono::seconds(seconds));
  const obs::ProfileReport rep = prof->stop();
  ok = true;
  if (query_value(query, "format") == "json") {
    *content_type = "application/json";
    return obs::Profiler::json_text(rep);
  }
  return obs::Profiler::folded_text(rep);
}

std::string MetricsHttpServer::respond(const char* req, std::size_t len) {
  const std::string_view head(req, len);
  std::string body;
  const char* content_type = "text/plain; charset=utf-8";
  const char* status = "200 OK";
  if (head.rfind("GET ", 0) != 0) {
    status = "405 Method Not Allowed";
    body = "only GET is served here\n";
  } else {
    const std::size_t sp = head.find(' ', 4);
    const std::string_view path =
        head.substr(4, sp == std::string_view::npos ? head.size() - 4
                                                    : sp - 4);
    if (path == "/metrics") {
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = obs::prometheus_text(rt_.metrics(), &rt_.trace_sink(),
                                  extra_ ? extra_() : std::string());
    } else if (path.rfind("/latency", 0) == 0 &&
               (path.size() == 8 || path[8] == '?')) {
      const std::string_view query =
          path.size() > 9 ? path.substr(9) : std::string_view{};
      content_type = "application/json";
      body = obs::latency_json(rt_.metrics());
      if (query_param(query, "reset", 0) == 1) {
        // Drain the worst-K timeline reservoirs AFTER rendering: the
        // response carries the outliers being discarded, so nothing is
        // lost — long soaks reset between phases this way.
        rt_.metrics().reset_worst();
      }
    } else if (path == "/parallelism") {
      content_type = "application/json";
      // One code path whether or not the profiler is compiled in: the
      // formatter renders compiled_in:false over an empty registry, so
      // scrapers see a well-formed document either way.
      body = obs::parallelism_json(rt_.metrics()) + '\n';
    } else if (path.rfind("/timeseries", 0) == 0 &&
               (path.size() == 11 || path[11] == '?')) {
      const std::string_view query =
          path.size() > 12 ? path.substr(12) : std::string_view{};
      content_type = "application/json";
      if (const obs::TimeSeries* ts = rt_.timeseries()) {
        // ?n=K bounds the window to the newest K epochs (0 = all).
        long n = query_param(query, "n", 0);
        if (n < 0) n = 0;
        body = ts->json(static_cast<std::size_t>(n));
      } else {
        // Timeseries off: still answer, so scrapers don't 404.
        body = obs::TimeSeries::disabled_json(rt_.scheduler().name());
      }
    } else if (path == "/health") {
      content_type = "application/json";
      // {"watchdog":{...},"profiler":{...}}; both members also render
      // with no sampler or profiler running, so probes don't 404.
      body = obs::json_object([this](obs::JsonWriter& w) {
        obs::Watchdog::write_health(w, rt_.watchdog(),
                                    rt_.scheduler().name());
        w.raw("profiler", obs::prof_health_json(rt_.profiler()));
      }) + '\n';
    } else if (path.rfind("/profile", 0) == 0 &&
               (path.size() == 8 || path[8] == '?')) {
      const std::string_view query =
          path.size() > 9 ? path.substr(9) : std::string_view{};
      bool ok = false;
      body = profile_body(query, ok, &content_type);
      if (!ok) {
        status = rt_.profiler() == nullptr ? "501 Not Implemented"
                                           : "409 Conflict";
      }
    } else {
      status = "404 Not Found";
      body = "try /metrics, /latency, /parallelism, /timeseries?n=K, "
             "/health or /profile?seconds=N\n";
    }
  }
  char head_buf[256];
  const int hn = std::snprintf(head_buf, sizeof(head_buf),
                               "HTTP/1.0 %s\r\n"
                               "Content-Type: %s\r\n"
                               "Content-Length: %zu\r\n"
                               "Connection: close\r\n"
                               "\r\n",
                               status, content_type, body.size());
  std::string out(head_buf, static_cast<std::size_t>(hn));
  out += body;
  return out;
}

void MetricsHttpServer::stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  if (listen_fd_ < 0) return;

  // Unblock the acceptor with a throwaway connection.
  const int kick = connect_tcp(static_cast<std::uint16_t>(port_));
  if (kick >= 0) ::close(kick);
  if (acceptor_done_.valid()) acceptor_done_.get();

  {
    LockGuard<SpinLock> g(conns_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  while (active_conns_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(1ms);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  // An owned reactor stops here (its threads reference the runtime); a
  // shared one belongs to the app and outlives us.
  owned_reactor_.reset();
}

}  // namespace icilk::net
