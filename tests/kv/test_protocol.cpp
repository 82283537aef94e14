// Tests for the memcached text protocol parser and command executor.
#include "kv/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "concurrent/rng.hpp"

namespace icilk::kv {
namespace {

Request parse_one(std::string_view wire) {
  RequestParser p;
  p.feed(wire);
  Request r;
  EXPECT_TRUE(p.next(r));
  return r;
}

TEST(Parser, GetSingleKey) {
  const Request r = parse_one("get foo\r\n");
  EXPECT_EQ(r.verb, Verb::Get);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.keys[0], "foo");
}

TEST(Parser, GetsMultiKey) {
  const Request r = parse_one("gets a b c\r\n");
  EXPECT_EQ(r.verb, Verb::Gets);
  ASSERT_EQ(r.keys.size(), 3u);
  EXPECT_EQ(r.keys[2], "c");
}

TEST(Parser, SetWithDataBlock) {
  const Request r = parse_one("set foo 7 0 5\r\nhello\r\n");
  EXPECT_EQ(r.verb, Verb::Set);
  EXPECT_EQ(r.keys[0], "foo");
  EXPECT_EQ(r.flags, 7u);
  EXPECT_EQ(r.data, "hello");
  EXPECT_FALSE(r.noreply);
}

TEST(Parser, SetNoreply) {
  const Request r = parse_one("set k 0 0 2 noreply\r\nhi\r\n");
  EXPECT_EQ(r.verb, Verb::Set);
  EXPECT_TRUE(r.noreply);
}

TEST(Parser, CasCarriesId) {
  const Request r = parse_one("cas k 1 0 3 99\r\nabc\r\n");
  EXPECT_EQ(r.verb, Verb::Cas);
  EXPECT_EQ(r.cas, 99u);
  EXPECT_EQ(r.data, "abc");
}

TEST(Parser, DataMayContainCrlfBytes) {
  // The length-prefixed block is binary-safe ("a\r\nb!" is 5 bytes).
  const Request r = parse_one("set k 0 0 5\r\na\r\nb!\r\n");
  EXPECT_EQ(r.verb, Verb::Set);
  EXPECT_EQ(r.data, "a\r\nb!");
}

TEST(Parser, IncrementalByteAtATime) {
  // The stress case for event-driven servers: the request trickles in one
  // byte per read. The parser must never emit early or lose bytes.
  const std::string wire = "set key 3 0 4\r\nwxyz\r\nget key\r\n";
  RequestParser p;
  Request r;
  int complete = 0;
  for (char c : wire) {
    p.feed(&c, 1);
    while (p.next(r)) {
      ++complete;
      if (complete == 1) {
        EXPECT_EQ(r.verb, Verb::Set);
        EXPECT_EQ(r.data, "wxyz");
      } else {
        EXPECT_EQ(r.verb, Verb::Get);
      }
    }
  }
  EXPECT_EQ(complete, 2);
}

TEST(Parser, PipelinedCommands) {
  RequestParser p;
  p.feed("set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\nget a b\r\nquit\r\n");
  Request r;
  ASSERT_TRUE(p.next(r));
  EXPECT_EQ(r.verb, Verb::Set);
  EXPECT_EQ(r.data, "A");
  ASSERT_TRUE(p.next(r));
  EXPECT_EQ(r.data, "B");
  ASSERT_TRUE(p.next(r));
  EXPECT_EQ(r.verb, Verb::Get);
  EXPECT_EQ(r.keys.size(), 2u);
  ASSERT_TRUE(p.next(r));
  EXPECT_EQ(r.verb, Verb::Quit);
  EXPECT_FALSE(p.next(r));
}

TEST(Parser, MalformedCommandsYieldBad) {
  EXPECT_EQ(parse_one("bogus cmd\r\n").verb, Verb::Bad);
  EXPECT_EQ(parse_one("get\r\n").verb, Verb::Bad);
  EXPECT_EQ(parse_one("set k x y z\r\n").verb, Verb::Bad);
  EXPECT_EQ(parse_one("incr k notanumber\r\n").verb, Verb::Bad);
  EXPECT_EQ(parse_one("\r\n").verb, Verb::Bad);
}

TEST(Parser, OversizedValueRejected) {
  const Request r = parse_one("set k 0 0 999999999999\r\n");
  EXPECT_EQ(r.verb, Verb::Bad);
}

TEST(Parser, CrlfLessFloodEndsInLineTooLong) {
  // A hostile client streams 16 MiB with no CRLF in 16 KiB reads: the
  // parser never holds more than the cap plus one read, and every verdict
  // is the fatal line-too-long error.
  constexpr std::size_t kRead = 16384;
  const std::string chunk(kRead, 'x');
  RequestParser p;
  Request r;
  std::size_t errors = 0;
  std::size_t max_pending = 0;
  for (std::size_t fed = 0; fed < (16u << 20); fed += kRead) {
    p.feed(chunk);
    max_pending = std::max(max_pending, p.pending_bytes());
    while (p.next(r)) {
      ++errors;
      EXPECT_EQ(r.verb, Verb::Bad);
      EXPECT_EQ(r.error, "line too long");
      EXPECT_TRUE(r.fatal);
    }
  }
  EXPECT_GT(errors, 0u);
  EXPECT_LE(max_pending, RequestParser::kMaxLineBytes + kRead);
}

TEST(Parser, LineCapSparesDataBlocks) {
  // A line of exactly the cap parses; a data block far beyond it, fed in
  // reads smaller than the block, is not a line.
  const std::size_t cap = RequestParser::kMaxLineBytes;
  const std::string at_cap = "get " + std::string(cap - 4, 'k');
  EXPECT_EQ(parse_one(at_cap + "\r\n").verb, Verb::Get);
  {
    // ... also when its CRLF is split across two reads.
    RequestParser p;
    Request r;
    p.feed(at_cap + "\r");
    EXPECT_FALSE(p.next(r));
    p.feed("\n");
    ASSERT_TRUE(p.next(r));
    EXPECT_EQ(r.verb, Verb::Get);
  }
  const std::string value(8 * cap, 'v');
  const std::string wire =
      "set k 0 0 " + std::to_string(value.size()) + "\r\n" + value + "\r\n";
  RequestParser p;
  Request r;
  bool got = false;
  for (std::size_t at = 0; at < wire.size(); at += 4096) {
    p.feed(std::string_view(wire).substr(at, 4096));
    if (p.next(r)) {
      got = true;
      break;
    }
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(r.verb, Verb::Set);
  EXPECT_EQ(r.data, value);
  EXPECT_EQ(parse_one(std::string(cap + 1, 'x') + "\r\n").error,
            "line too long");
}

TEST(Parser, DeleteIncrTouch) {
  EXPECT_EQ(parse_one("delete k\r\n").verb, Verb::Delete);
  const Request i = parse_one("incr k 5\r\n");
  EXPECT_EQ(i.verb, Verb::Incr);
  EXPECT_EQ(i.delta, 5u);
  const Request t = parse_one("touch k 100\r\n");
  EXPECT_EQ(t.verb, Verb::Touch);
  EXPECT_DOUBLE_EQ(t.exptime_s, 100.0);
}

// ---------------------------------------------------------------------------

struct ExecTest : ::testing::Test {
  Store store;
  std::string run(std::string_view wire) {
    RequestParser p;
    p.feed(wire);
    std::string out;
    Request r;
    while (p.next(r)) {
      if (!execute(r, store, out)) break;
    }
    return out;
  }
};

TEST_F(ExecTest, SetThenGet) {
  EXPECT_EQ(run("set foo 7 0 5\r\nhello\r\n"), "STORED\r\n");
  EXPECT_EQ(run("get foo\r\n"), "VALUE foo 7 5\r\nhello\r\nEND\r\n");
}

TEST_F(ExecTest, GetMissIsJustEnd) {
  EXPECT_EQ(run("get nothere\r\n"), "END\r\n");
}

TEST_F(ExecTest, MultiGetMixesHitsAndMisses) {
  run("set a 0 0 1\r\nA\r\nset c 0 0 1\r\nC\r\n");
  EXPECT_EQ(run("get a b c\r\n"),
            "VALUE a 0 1\r\nA\r\nVALUE c 0 1\r\nC\r\nEND\r\n");
}

TEST_F(ExecTest, GetsIncludesCas) {
  run("set k 0 0 1\r\nx\r\n");
  const std::string out = run("gets k\r\n");
  EXPECT_TRUE(out.rfind("VALUE k 0 1 ", 0) == 0) << out;
}

TEST_F(ExecTest, CasFlow) {
  run("set k 0 0 2\r\nv1\r\n");
  const auto cas = store.get("k")->cas;
  EXPECT_EQ(run("cas k 0 0 2 " + std::to_string(cas) + "\r\nv2\r\n"),
            "STORED\r\n");
  EXPECT_EQ(run("cas k 0 0 2 " + std::to_string(cas) + "\r\nv3\r\n"),
            "EXISTS\r\n");
}

TEST_F(ExecTest, NoreplySuppressesResponse) {
  EXPECT_EQ(run("set k 0 0 1 noreply\r\nx\r\n"), "");
  EXPECT_EQ(store.get("k")->value, "x");
}

TEST_F(ExecTest, DeleteIncrTouchReplies) {
  run("set n 0 0 1\r\n5\r\n");
  EXPECT_EQ(run("incr n 3\r\n"), "8\r\n");
  EXPECT_EQ(run("decr n 100\r\n"), "0\r\n");
  EXPECT_EQ(run("touch n 50\r\n"), "TOUCHED\r\n");
  EXPECT_EQ(run("delete n\r\n"), "DELETED\r\n");
  EXPECT_EQ(run("delete n\r\n"), "NOT_FOUND\r\n");
  EXPECT_EQ(run("incr n 1\r\n"), "NOT_FOUND\r\n");
}

TEST_F(ExecTest, StatsContainsCounters) {
  run("set k 0 0 1\r\nx\r\nget k\r\nget miss\r\n");
  const std::string out = run("stats\r\n");
  EXPECT_NE(out.find("STAT get_hits 1"), std::string::npos) << out;
  EXPECT_NE(out.find("STAT get_misses 1"), std::string::npos);
  EXPECT_NE(out.find("STAT curr_items 1"), std::string::npos);
  EXPECT_TRUE(out.ends_with("END\r\n"));
}

TEST_F(ExecTest, VersionAndQuit) {
  EXPECT_TRUE(run("version\r\n").rfind("VERSION", 0) == 0);
  RequestParser p;
  p.feed("quit\r\n");
  Request r;
  ASSERT_TRUE(p.next(r));
  std::string out;
  EXPECT_FALSE(execute(r, store, out));  // quit: close connection
}

TEST_F(ExecTest, BadCommandReportsClientError) {
  const std::string out = run("frobnicate\r\n");
  EXPECT_TRUE(out.rfind("CLIENT_ERROR", 0) == 0);
}

TEST_F(ExecTest, OverlongLineRepliesAndCloses) {
  RequestParser p;
  p.feed(std::string(RequestParser::kMaxLineBytes + 1, 'x'));
  Request r;
  ASSERT_TRUE(p.next(r));
  std::string out;
  EXPECT_FALSE(execute(r, store, out));  // fatal: close the connection
  EXPECT_EQ(out, "CLIENT_ERROR line too long\r\n");
  EXPECT_EQ(p.pending_bytes(), 0u);
}

}  // namespace
}  // namespace icilk::kv

namespace icilk::kv {
namespace {

// Property: the request sequence parsed from a byte stream is invariant
// under how the stream is split into feed() chunks (the exact property an
// event-driven server depends on under arbitrary TCP segmentation).
TEST(ParserProperty, ChunkingInvariance) {
  // Canonical traffic with every command shape.
  std::string wire;
  for (int i = 0; i < 20; ++i) {
    wire += "set key" + std::to_string(i) + " " + std::to_string(i) +
            " 0 " + std::to_string(1 + i % 7) + "\r\n" +
            std::string(1 + i % 7, static_cast<char>('a' + i % 26)) + "\r\n";
    wire += "get key" + std::to_string(i) + " other" + std::to_string(i) +
            "\r\n";
    wire += "incr key" + std::to_string(i) + " 3\r\n";
    if (i % 4 == 0) wire += "delete key" + std::to_string(i) + " noreply\r\n";
    if (i % 5 == 0) wire += "stats\r\n";
  }
  // CRs inside data blocks, a "\r" that ends a line early, errors and
  // noreply: fed one byte at a time, each of their CRLFs splits.
  wire += "set a 1 0 4\r\n\r\n\r\n\r\ncas a 0 0 3 7 noreply\r\nx\ry\r\n"
          "bogus\r\r\n\r\ntouch a 5\r\nstats icilk\r\nquit\r\n";
  // chunk == 0: random reads of 1..97 bytes.
  auto parse_with_chunks = [&](Xoshiro256& rng, std::size_t chunk) {
    RequestParser p;
    std::vector<std::pair<Verb, std::string>> seq;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t n = chunk != 0 ? chunk : 1 + rng.bounded(97);
      const std::size_t take = std::min<std::size_t>(n, wire.size() - pos);
      p.feed(wire.data() + pos, take);
      pos += take;
      Request r;
      while (p.next(r)) {
        std::string k = r.data + "|" + r.error + "|" + (r.noreply ? "n" : "");
        for (const auto& key : r.keys) k += "|" + key;
        seq.emplace_back(r.verb, std::move(k));
      }
    }
    return seq;
  };
  Xoshiro256 rng0(0);
  const auto reference = parse_with_chunks(rng0, wire.size());
  ASSERT_GT(reference.size(), 60u);
  EXPECT_EQ(parse_with_chunks(rng0, 1), reference) << "byte at a time";
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Xoshiro256 rng(seed);
    EXPECT_EQ(parse_with_chunks(rng, 0), reference) << "seed " << seed;
  }
}

}  // namespace
}  // namespace icilk::kv
