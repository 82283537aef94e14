// Integration test for the live observability surface: drive the I-Cilk
// minicached frontend with real TCP load plus an in-runtime fork-join
// task, then assert that `stats` / `stats icilk` report the scheduler
// events (steals, mugs) the load must have produced.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached/icilk_server.hpp"
#include "core/api.hpp"
#include "core/prompt_scheduler.hpp"
#include "net/socket.hpp"
#include "obs/reqtrace.hpp"

namespace icilk::apps {
namespace {

using namespace std::chrono_literals;

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

  std::string read_until(const std::string& terminator) {
    std::string got;
    const auto deadline = std::chrono::steady_clock::now() + 10s;
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

 private:
  int fd_ = -1;
};

/// Parses "STAT <name> <integer>\r\n" out of a stats reply; -1 if absent.
long long stat_value(const std::string& reply, const std::string& name) {
  const std::string needle = "STAT " + name + " ";
  const std::size_t pos = reply.find(needle);
  if (pos == std::string::npos) return -1;
  return std::stoll(reply.substr(pos + needle.size()));
}

/// Spawn-tree CPU work inside the runtime: guarantees stealable entries so
/// idle workers record steals even if the connection load alone wouldn't.
void spawn_tree(int depth, std::atomic<int>& leaves) {
  if (depth == 0) {
    leaves.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spawn([depth, &leaves] { spawn_tree(depth - 1, leaves); });
  spawn_tree(depth - 1, leaves);
  sync();
}

class McStatsObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ICilkMcServer::Config cfg;
    cfg.rt.num_workers = 4;
    cfg.rt.num_io_threads = 2;
    cfg.rt.num_levels = 2;
    cfg.rt.trace_events = true;  // exercise tracing alongside the metrics
    server_ = std::make_unique<ICilkMcServer>(
        cfg, std::make_unique<PromptScheduler>());
  }
  void TearDown() override {
    if (server_) server_->stop();
  }

  /// Concurrent get/set traffic; every blocked read is a suspend, every
  /// completion a resumable deque some worker must steal or mug back.
  void drive_load(int clients, int rounds) {
    std::vector<std::thread> ts;
    for (int i = 0; i < clients; ++i) {
      ts.emplace_back([this, i, rounds] {
        TestClient c(server_->port());
        const std::string key = "k" + std::to_string(i);
        c.roundtrip("set " + key + " 0 0 3\r\nabc\r\n", "\r\n");
        for (int r = 0; r < rounds; ++r) {
          c.roundtrip("get " + key + "\r\n", "END\r\n");
        }
      });
    }
    for (auto& t : ts) t.join();
  }

  std::unique_ptr<ICilkMcServer> server_;
};

TEST_F(McStatsObsTest, StatsIcilkReportsSchedulerActivityUnderLoad) {
  drive_load(/*clients=*/16, /*rounds=*/50);

  // Fork-join burst inside the runtime to guarantee steal traffic.
  std::atomic<int> leaves{0};
  server_->runtime()
      .submit(1,
              [&leaves] {
                for (int i = 0; i < 8; ++i) spawn_tree(6, leaves);
              })
      .get();
  EXPECT_EQ(leaves.load(), 8 * (1 << 6));

  TestClient c(server_->port());
  const std::string out = c.roundtrip("stats icilk\r\n", "END\r\n");

  // Aggregate counters: the load above must have produced all of these.
  EXPECT_GT(stat_value(out, "icilk_spawns"), 0) << out;
  EXPECT_GT(stat_value(out, "icilk_steals"), 0) << out;
  EXPECT_GT(stat_value(out, "icilk_mugs"), 0) << out;
  EXPECT_GT(stat_value(out, "icilk_gets_suspended"), 0) << out;
  EXPECT_GT(stat_value(out, "icilk_io_ops_submitted"), 0) << out;
  EXPECT_GT(stat_value(out, "icilk_tasks_run"), 0) << out;

  // Per-level slices from the metrics registry. Connections run at level 1;
  // their suspend/resume churn is mug traffic at that level.
  const long long l1_mugs = stat_value(out, "icilk_l1_mugs");
  const long long l1_suspends = stat_value(out, "icilk_l1_suspends");
  EXPECT_GT(l1_mugs, 0) << out;
  EXPECT_GT(l1_suspends, 0) << out;

  // `stats icilk` is the scoped group: no kv-store lines.
  EXPECT_EQ(out.find("STAT get_hits"), std::string::npos) << out;
}

// Each STAT name appears once per reply: the request-latency group comes
// from one renderer, not from both the registry text and the latency text.
TEST_F(McStatsObsTest, StatsIcilkNamesAreUnique) {
  drive_load(/*clients=*/4, /*rounds=*/20);
  TestClient c(server_->port());
  const std::string out = c.roundtrip("stats icilk\r\n", "END\r\n");
  std::set<std::string> seen;
  std::size_t lines = 0;
  for (std::size_t at = out.find("STAT "); at != std::string::npos;
       at = out.find("STAT ", at + 5)) {
    const std::size_t sp = out.find(' ', at + 5);
    const std::string name = out.substr(at + 5, sp - at - 5);
    EXPECT_TRUE(seen.insert(name).second) << "repeated " << name << "\n"
                                          << out;
    ++lines;
  }
  EXPECT_GT(lines, 0u) << out;
  if (obs::reqtrace_compiled_in()) {
    EXPECT_GE(stat_value(out, "icilk_l1_req_count"), 1) << out;
  }
}

TEST_F(McStatsObsTest, PlainStatsIncludesBothGroups) {
  drive_load(/*clients=*/4, /*rounds=*/10);
  TestClient c(server_->port());
  c.roundtrip("set s 0 0 1\r\nx\r\n", "\r\n");
  c.roundtrip("get s\r\n", "END\r\n");

  const std::string out = c.roundtrip("stats\r\n", "END\r\n");
  EXPECT_NE(out.find("STAT get_hits"), std::string::npos) << out;
  EXPECT_GE(stat_value(out, "icilk_mugs"), 0) << out;
  EXPECT_GT(stat_value(out, "icilk_io_ops_submitted"), 0) << out;
}

TEST_F(McStatsObsTest, PromptnessLatencyPercentilesAppear) {
  drive_load(/*clients=*/8, /*rounds=*/30);
  TestClient c(server_->port());
  const std::string out = c.roundtrip("stats icilk\r\n", "END\r\n");

  // The connection level went empty -> non-empty many times; the registry
  // must have measured at least one promptness response latency, and the
  // percentile lines must render with it.
  const long long prompt_count = stat_value(out, "icilk_l1_prompt_count");
  EXPECT_GT(prompt_count, 0) << out;
  EXPECT_GE(stat_value(out, "icilk_l1_prompt_p99_us"), 0) << out;
  EXPECT_GE(stat_value(out, "icilk_l1_prompt_p50_us"), 0) << out;
}

TEST_F(McStatsObsTest, TraceSinkCapturedEvents) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "built with ICILK_TRACE=OFF";
  }
  drive_load(/*clients=*/4, /*rounds=*/20);

  // Worker rings plus I/O-thread rings must hold real events by now.
  auto& sink = server_->runtime().trace_sink();
  EXPECT_GE(sink.ring_count(), 4u);  // 4 workers (+2 io threads on use)
  const std::string json = sink.chrome_trace_json();
  EXPECT_NE(json.find("\"io_complete\""), std::string::npos);
  EXPECT_NE(json.find("\"mug\""), std::string::npos);
}

}  // namespace
}  // namespace icilk::apps
