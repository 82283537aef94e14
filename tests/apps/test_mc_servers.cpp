// End-to-end tests of BOTH minicached frontends over real TCP, sharing one
// protocol-conformance battery: the pthread event-driven baseline and the
// I-Cilk task-parallel port must be externally indistinguishable.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached/icilk_server.hpp"
#include "apps/memcached/pthread_server.hpp"
#include "core/adaptive_scheduler.hpp"
#include "core/prompt_scheduler.hpp"
#include "kv/protocol.hpp"
#include "net/socket.hpp"

namespace icilk::apps {
namespace {

using namespace std::chrono_literals;

/// Minimal blocking client over a nonblocking fd.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = net::connect_tcp(static_cast<std::uint16_t>(port));
    EXPECT_GE(fd_, 0);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t w = ::write(fd_, s.data() + off, s.size() - off);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno != EAGAIN) {
        FAIL() << "client write error " << errno;
      }
    }
  }

  /// Reads until `terminator` appears (5s timeout); returns everything.
  std::string read_until(const std::string& terminator) {
    std::string got;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    char buf[4096];
    while (got.find(terminator) == std::string::npos) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "timeout; got so far: " << got;
        return got;
      }
      const ssize_t r = ::read(fd_, buf, sizeof(buf));
      if (r > 0) {
        got.append(buf, static_cast<std::size_t>(r));
      } else if (r == 0) {
        return got;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        std::this_thread::sleep_for(1ms);
      } else {
        ADD_FAILURE() << "client read error " << errno;
        return got;
      }
    }
    return got;
  }

  std::string roundtrip(const std::string& req, const std::string& term) {
    send(req);
    return read_until(term);
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Server factory abstraction so both frontends share the battery.
struct ServerHandle {
  std::function<int()> port;
  std::function<void()> stop;
  std::shared_ptr<void> holder;
};

struct ServerCase {
  std::string name;
  std::function<ServerHandle()> make;
};

std::vector<ServerCase> AllServers() {
  return {
      {"pthread",
       [] {
         PthreadMcServer::Config cfg;
         cfg.num_workers = 2;
         auto s = std::make_shared<PthreadMcServer>(cfg);
         return ServerHandle{[s] { return s->port(); },
                             [s] { s->stop(); }, s};
       }},
      {"icilk_prompt",
       [] {
         ICilkMcServer::Config cfg;
         cfg.rt.num_workers = 2;
         cfg.rt.num_io_threads = 2;
         cfg.rt.num_levels = 2;
         auto s = std::make_shared<ICilkMcServer>(
             cfg, std::make_unique<PromptScheduler>());
         return ServerHandle{[s] { return s->port(); },
                             [s] { s->stop(); }, s};
       }},
      {"icilk_adaptive",
       [] {
         ICilkMcServer::Config cfg;
         cfg.rt.num_workers = 2;
         cfg.rt.num_io_threads = 2;
         cfg.rt.num_levels = 2;
         AdaptiveScheduler::Params p;
         p.quantum_us = 1000;
         auto s = std::make_shared<ICilkMcServer>(
             cfg, std::make_unique<AdaptiveScheduler>(
                      AdaptiveScheduler::Variant::Adaptive, p));
         return ServerHandle{[s] { return s->port(); },
                             [s] { s->stop(); }, s};
       }},
  };
}

class McServerTest : public ::testing::TestWithParam<ServerCase> {
 protected:
  void SetUp() override { server_ = GetParam().make(); }
  void TearDown() override { server_.stop(); }
  ServerHandle server_;
};

TEST_P(McServerTest, SetGetRoundTrip) {
  TestClient c(server_.port());
  EXPECT_EQ(c.roundtrip("set foo 3 0 5\r\nhello\r\n", "\r\n"), "STORED\r\n");
  EXPECT_EQ(c.roundtrip("get foo\r\n", "END\r\n"),
            "VALUE foo 3 5\r\nhello\r\nEND\r\n");
}

TEST_P(McServerTest, MissReturnsEnd) {
  TestClient c(server_.port());
  EXPECT_EQ(c.roundtrip("get nosuchkey\r\n", "END\r\n"), "END\r\n");
}

TEST_P(McServerTest, PipelinedBurst) {
  TestClient c(server_.port());
  // Many requests in one write — exercises the yield threshold path in the
  // pthread server and the parser loop in the icilk one.
  std::string burst;
  for (int i = 0; i < 100; ++i) {
    burst += "set k" + std::to_string(i) + " 0 0 2\r\nv" +
             std::to_string(i % 10) + "\r\n";
  }
  c.send(burst);
  std::string reply;
  int stored = 0;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (stored < 100 && std::chrono::steady_clock::now() < deadline) {
    reply += c.read_until("STORED\r\n");
    stored = 0;
    for (std::size_t p = reply.find("STORED"); p != std::string::npos;
         p = reply.find("STORED", p + 1)) {
      ++stored;
    }
  }
  EXPECT_EQ(stored, 100);
  EXPECT_EQ(c.roundtrip("get k42\r\n", "END\r\n"),
            "VALUE k42 0 2\r\nv2\r\nEND\r\n");
}

TEST_P(McServerTest, LargeValueSpansManyPackets) {
  TestClient c(server_.port());
  const std::string big(200000, 'x');
  c.send("set big 0 0 " + std::to_string(big.size()) + "\r\n" + big +
         "\r\n");
  EXPECT_EQ(c.read_until("\r\n"), "STORED\r\n");
  const std::string resp = c.roundtrip("get big\r\n", "END\r\n");
  EXPECT_NE(resp.find(big), std::string::npos);
}

TEST_P(McServerTest, DeleteIncrFlow) {
  TestClient c(server_.port());
  c.roundtrip("set n 0 0 1\r\n7\r\n", "\r\n");
  EXPECT_EQ(c.roundtrip("incr n 3\r\n", "\r\n"), "10\r\n");
  EXPECT_EQ(c.roundtrip("delete n\r\n", "\r\n"), "DELETED\r\n");
  EXPECT_EQ(c.roundtrip("get n\r\n", "END\r\n"), "END\r\n");
}

TEST_P(McServerTest, ManyConcurrentClients) {
  constexpr int kClients = 16;
  std::vector<std::thread> ts;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    ts.emplace_back([&, i] {
      TestClient c(server_.port());
      const std::string key = "ck" + std::to_string(i);
      const std::string val = "val" + std::to_string(i);
      if (c.roundtrip("set " + key + " 0 0 " + std::to_string(val.size()) +
                          "\r\n" + val + "\r\n",
                      "\r\n") != "STORED\r\n") {
        return;
      }
      const std::string expect =
          "VALUE " + key + " 0 " + std::to_string(val.size()) + "\r\n" + val +
          "\r\nEND\r\n";
      for (int round = 0; round < 20; ++round) {
        if (c.roundtrip("get " + key + "\r\n", "END\r\n") != expect) return;
      }
      ok.fetch_add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(ok.load(), kClients);
}

TEST_P(McServerTest, QuitClosesConnection) {
  TestClient c(server_.port());
  c.send("quit\r\n");
  // Server closes: read returns EOF (empty result without terminator).
  const std::string rest = c.read_until("NEVER");
  EXPECT_EQ(rest, "");
}

TEST_P(McServerTest, OverlongLineGetsClientErrorAndClose) {
  TestClient c(server_.port());
  // A line of exactly the cap is still a command.
  const std::size_t cap = kv::RequestParser::kMaxLineBytes;
  EXPECT_EQ(c.roundtrip("get " + std::string(cap - 4, 'k') + "\r\n",
                        "END\r\n"),
            "END\r\n");
  // One byte more, no CRLF: the whole line is read before the cap trips,
  // so the close is a FIN and the reply is readable.
  c.send(std::string(cap + 1, 'x'));
  EXPECT_EQ(c.read_until("NEVER"), "CLIENT_ERROR line too long\r\n");
}

TEST_P(McServerTest, StatsReflectTraffic) {
  TestClient c(server_.port());
  c.roundtrip("set s1 0 0 1\r\nx\r\n", "\r\n");
  c.roundtrip("get s1\r\n", "END\r\n");
  c.roundtrip("get nope\r\n", "END\r\n");
  const std::string out = c.roundtrip("stats\r\n", "END\r\n");
  EXPECT_NE(out.find("STAT get_hits"), std::string::npos);
  EXPECT_NE(out.find("STAT get_misses"), std::string::npos);
}

TEST_P(McServerTest, AbruptDisconnectTolerated) {
  for (int i = 0; i < 8; ++i) {
    TestClient c(server_.port());
    c.send("set a 0 0 3\r\n");  // half a request, then vanish
  }
  // Server must still be healthy afterwards.
  TestClient c(server_.port());
  EXPECT_EQ(c.roundtrip("set z 0 0 1\r\nq\r\n", "\r\n"), "STORED\r\n");
}

INSTANTIATE_TEST_SUITE_P(
    Frontends, McServerTest, ::testing::ValuesIn(AllServers()),
    [](const ::testing::TestParamInfo<ServerCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace icilk::apps
