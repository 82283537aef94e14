// McClient mid-request failure handling: a server that kills connections
// mid-flight must not wedge the open-loop driver. Stranded requests are
// counted as errors, the connection is recycled (reconnects_ counts), and
// run() converges without waiting out the drain timeout.
#include "load/mc_client.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "load/histogram.hpp"
#include "load/openloop.hpp"
#include "net/socket.hpp"

namespace icilk::load {
namespace {

// A hostile memcached impostor: answers the preload's `version` barrier so
// McClient::setup() succeeds, then either KILLS any connection that sends
// a `get` (every run-phase request dies mid-flight) or answers every
// run-phase request with an error line: `ERROR` for a get, `NOT_STORED`
// for a set.
class ImpostorServer {
 public:
  enum class Mode { kKillOnGet, kErrorReplies };

  explicit ImpostorServer(Mode mode) : mode_(mode) {
    lfd_ = net::listen_tcp(0);
    EXPECT_GE(lfd_, 0);
    port_ = static_cast<std::uint16_t>(net::local_port(lfd_));
    th_ = std::thread([this] { loop(); });
  }
  ~ImpostorServer() {
    stop_.store(true);
    th_.join();
    for (const auto& c : conns_) ::close(c.fd);
    ::close(lfd_);
  }

  std::uint16_t port() const { return port_; }
  int kills() const { return kills_.load(); }

 private:
  struct Conn {
    int fd;
    std::string in;
  };

  void loop() {
    while (!stop_.load()) {
      std::vector<pollfd> pfds;
      pfds.push_back({lfd_, POLLIN, 0});
      for (const auto& c : conns_) pfds.push_back({c.fd, POLLIN, 0});
      if (::poll(pfds.data(), pfds.size(), 10) < 0) continue;

      if (pfds[0].revents & POLLIN) {
        const int fd = ::accept4(lfd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd >= 0) conns_.push_back({fd, {}});
      }
      for (std::size_t i = 0; i + 1 < pfds.size() && i < conns_.size();
           ++i) {
        if ((pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        Conn& c = conns_[i];
        char buf[4096];
        const ssize_t r = ::read(c.fd, buf, sizeof(buf));
        if (r > 0) {
          c.in.append(buf, static_cast<std::size_t>(r));
          service(c);
        } else if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          close_at(i);
          --i;
        }
      }
    }
  }

  void service(Conn& c) {
    if (mode_ == Mode::kErrorReplies) {
      answer_errors(c);
      return;
    }
    if (c.in.find("get ") != std::string::npos) {
      // Run-phase request: die mid-flight, never answering.
      kills_.fetch_add(1);
      const std::size_t i = static_cast<std::size_t>(&c - conns_.data());
      close_at(i);
      return;
    }
    if (c.in.find("version\r\n") != std::string::npos) {
      c.in.clear();  // preload barrier (sets were noreply)
      const char* v = "VERSION killer\r\n";
      (void)!::write(c.fd, v, 16);
    }
  }

  // Consumes every complete request in c.in; preload sets are noreply and
  // stay unanswered.
  void answer_errors(Conn& c) {
    for (;;) {
      const std::size_t nl = c.in.find("\r\n");
      if (nl == std::string::npos) return;
      const std::string line = c.in.substr(0, nl);
      std::size_t used = nl + 2;
      std::string reply;
      if (line.rfind("get ", 0) == 0) {
        reply = "ERROR\r\n";
      } else if (line.rfind("set ", 0) == 0) {
        std::istringstream is(line);
        std::string verb, key, flags, exptime, noreply;
        std::size_t len = 0;
        is >> verb >> key >> flags >> exptime >> len >> noreply;
        if (c.in.size() < used + len + 2) return;  // body not here yet
        used += len + 2;
        if (noreply.empty()) reply = "NOT_STORED\r\n";
      } else if (line == "version") {
        reply = "VERSION impostor\r\n";
      }
      c.in.erase(0, used);
      if (!reply.empty()) (void)!::write(c.fd, reply.data(), reply.size());
    }
  }

  void close_at(std::size_t i) {
    ::close(conns_[i].fd);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  const Mode mode_;
  int lfd_;
  std::uint16_t port_;
  std::thread th_;
  std::atomic<bool> stop_{false};
  std::atomic<int> kills_{0};
  std::vector<Conn> conns_;  // server-thread only
};

TEST(McClientRecycle, MidFlightKillsAreCountedNotStalled) {
  ImpostorServer server(ImpostorServer::Mode::kKillOnGet);

  McClient::Config cfg;
  cfg.port = server.port();
  cfg.connections = 4;
  cfg.keyspace = 16;
  cfg.get_fraction = 1.0;  // every run-phase request is a killable get
  cfg.seed = 71;
  McClient client(cfg);
  ASSERT_TRUE(client.setup());

  constexpr std::size_t kRequests = 200;
  std::vector<std::uint64_t> arrivals;
  for (std::size_t i = 0; i < kRequests; ++i) {
    arrivals.push_back(i * 200000);  // 5k rps, 40ms of schedule
  }
  Histogram hist;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t completed = client.run(arrivals, hist, /*drain=*/30.0);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  // Every request died; all must be accounted as errors — the run ends
  // by ACCOUNTING, far inside the 30s drain window, not by timing out.
  EXPECT_EQ(completed, 0u);
  EXPECT_GE(client.errors(), kRequests);
  EXPECT_LT(elapsed, std::chrono::seconds(20));
  // And the client re-established connections rather than going dark.
  EXPECT_GT(client.reconnects(), 0u);
  EXPECT_GT(server.kills(), 0);
}

// Sanity: against a server that never kills, recycling stays dormant.
TEST(McClientRecycle, NoFailuresMeansNoReconnects) {
  // The impostor only kills on `get`; an all-set workload survives, though
  // sets get no replies — so expect errors via EOF only at teardown.
  // Instead just exercise setup + zero arrivals: nothing to recycle.
  ImpostorServer server(ImpostorServer::Mode::kKillOnGet);
  McClient::Config cfg;
  cfg.port = server.port();
  cfg.connections = 2;
  cfg.keyspace = 8;
  cfg.seed = 72;
  McClient client(cfg);
  ASSERT_TRUE(client.setup());
  Histogram hist;
  EXPECT_EQ(client.run({}, hist, 1.0), 0u);
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(client.errors(), 0u);
}

// Each reply counts once: an error line in answer to a GET and a SET that
// was not stored are errors, never also (or instead) latency samples, so
// hist.count() + errors() equals the requests fired.
TEST(McClientRecycle, ErrorRepliesCountOnceAsErrors) {
  ImpostorServer server(ImpostorServer::Mode::kErrorReplies);
  McClient::Config cfg;
  cfg.port = server.port();
  cfg.connections = 2;
  cfg.keyspace = 16;
  cfg.get_fraction = 0.5;  // both reply kinds
  cfg.seed = 73;
  McClient client(cfg);
  ASSERT_TRUE(client.setup());

  constexpr std::size_t kRequests = 100;
  std::vector<std::uint64_t> arrivals;
  for (std::size_t i = 0; i < kRequests; ++i) {
    arrivals.push_back(i * 100000);  // 10k rps, 10ms of schedule
  }
  Histogram hist;
  EXPECT_EQ(client.run(arrivals, hist, /*drain=*/10.0), 0u);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(client.errors(), kRequests);
  EXPECT_EQ(client.reconnects(), 0u);
}

}  // namespace
}  // namespace icilk::load
