// Chrome trace_event JSON exporter: structural well-formedness (parsed
// with obs/json's strict reader, required fields), event mapping
// (metadata / instant / duration / request flows), and timestamp
// normalization.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/json.hpp"

namespace icilk::obs {
namespace {

bool valid_json(const std::string& s) {
  json::Value v;
  return json::parse(s, v);
}

std::size_t count_occurrences(const std::string& hay, const std::string& n) {
  std::size_t count = 0;
  for (std::size_t p = hay.find(n); p != std::string::npos;
       p = hay.find(n, p + n.size())) {
    ++count;
  }
  return count;
}

TEST(ChromeExport, EmptySinkIsValidJson) {
  TraceSink sink(64, true);
  const std::string json = sink.chrome_trace_json();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeExport, EventsAndThreadMetadata) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with ICILK_TRACE=OFF";
  TraceSink sink(64, true);
  TraceRing& w0 = sink.acquire_ring("worker0");
  TraceRing& io = sink.acquire_ring("io0");
  w0.record(EventKind::kSpawn, 1, 42);
  w0.record(EventKind::kSteal, 0, 0);
  io.record(EventKind::kIoComplete, TraceEvent::kNoLevel16, 9);

  const std::string json = sink.chrome_trace_json();
  ASSERT_TRUE(valid_json(json)) << json;

  // One thread_name metadata record per ring.
  EXPECT_EQ(count_occurrences(json, "\"thread_name\""), 2u);
  EXPECT_NE(json.find("\"worker0\""), std::string::npos);
  EXPECT_NE(json.find("\"io0\""), std::string::npos);
  // The instants, with their payloads.
  EXPECT_NE(json.find("\"spawn\""), std::string::npos);
  EXPECT_NE(json.find("\"steal\""), std::string::npos);
  EXPECT_NE(json.find("\"io_complete\""), std::string::npos);
  EXPECT_NE(json.find("\"level\":1"), std::string::npos);
  EXPECT_NE(json.find("\"arg\":42"), std::string::npos);
  // kNoLevel16 events carry no bogus "level" with 65535.
  EXPECT_EQ(json.find("65535"), std::string::npos);
}

TEST(ChromeExport, SleepPairsBecomeDurationEvents) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with ICILK_TRACE=OFF";
  TraceSink sink(64, true);
  TraceRing& w0 = sink.acquire_ring("worker0");
  w0.record(EventKind::kSleepBegin);
  w0.record(EventKind::kSleepEnd);
  w0.record(EventKind::kSleepBegin);
  w0.record(EventKind::kSleepEnd);

  const std::string json = sink.chrome_trace_json();
  ASSERT_TRUE(valid_json(json)) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"sleep\""), 2u);
  // Paired sleeps are consumed, not also emitted as instants.
  EXPECT_EQ(json.find("sleep_begin"), std::string::npos);
}

TEST(ChromeExport, TimestampsStartNearZeroMicroseconds) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with ICILK_TRACE=OFF";
  TraceSink sink(64, true);
  TraceRing& w0 = sink.acquire_ring("worker0");
  w0.record(EventKind::kSpawn, 0, 0);

  const std::string json = sink.chrome_trace_json();
  // The single event is the origin: its ts must be exactly 0.000.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos) << json;
}

// The timestamps come from the TSC, so instead of a golden the parsed
// document is checked: every event carries its required fields, request
// flows close with a binding point, and each lane's ts never decreases.
TEST(ChromeExport, ParsedEventsCarryRequiredFields) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with ICILK_TRACE=OFF";
  TraceSink sink(64, true);
  TraceRing& w0 = sink.acquire_ring("worker0");
  TraceRing& io = sink.acquire_ring("io\"0");
  w0.record(EventKind::kReqBegin, 1, 7);
  io.record(EventKind::kIoComplete, TraceEvent::kNoLevel16, 3);
  w0.record(EventKind::kReqPhase, 1, 7);
  w0.record(EventKind::kSleepBegin);
  w0.record(EventKind::kSleepEnd);
  w0.record(EventKind::kReqEnd, 1, 7);

  json::Value doc;
  std::string err;
  const std::string text = sink.chrome_trace_json();
  ASSERT_TRUE(json::parse(text, doc, &err)) << err << "\n" << text;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t flows = 0;
  double last_ts[2] = {-1, -1};
  for (const json::Value& e : events->items) {
    for (const char* k : {"name", "ph", "pid", "tid"}) {
      EXPECT_NE(e.find(k), nullptr) << k << " missing in " << text;
    }
    const std::string& ph = e.find("ph")->str;
    if (ph == "M") continue;
    const json::Value* ts = e.find("ts");
    ASSERT_NE(ts, nullptr) << text;
    const auto tid = static_cast<std::size_t>(e.find("tid")->num);
    ASSERT_LT(tid, 2u);
    EXPECT_GE(ts->num, last_ts[tid]) << text;
    last_ts[tid] = ts->num;
    if (ph == "s" || ph == "t" || ph == "f") {
      ++flows;
      EXPECT_EQ(e.find("id")->num, 7);
      EXPECT_EQ(e.find("bp") != nullptr, ph == "f") << text;
    }
  }
  EXPECT_EQ(flows, 3u);
  // Ring names are escaped like any other string.
  EXPECT_NE(text.find("\"io\\\"0\""), std::string::npos) << text;
}

TEST(ChromeExport, FileRoundTrip) {
  // Enough events that the exporter flushes in several chunks.
  TraceSink sink(8192, true);
  TraceRing& w0 = sink.acquire_ring("worker0");
  for (int i = 0; i < 5000; ++i) {
    w0.record(EventKind::kMug, 1, static_cast<std::uint32_t>(i));
  }
  const std::string path =
      testing::TempDir() + "icilk_test_chrome_export.json";
  ASSERT_TRUE(sink.write_chrome_trace_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, sink.chrome_trace_json());
  EXPECT_TRUE(valid_json(contents));
}

}  // namespace
}  // namespace icilk::obs
