// obs/json: the writer's comma placement, escaping and number formats,
// the STAT-line sink, and the strict reader's rejection of malformed
// documents (the flight-bundle garbage cases included).
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace icilk::obs {
namespace {

TEST(JsonWriter, PlacesCommasAndEscapes) {
  std::string out;
  {
    JsonWriter w(out);
    auto doc = w.object();
    w.field("n", -3).field("u", std::uint64_t{18446744073709551615ull});
    w.field("ok", true).fixed("x", 2.25, 1).hex("bits", 0xbeef);
    {
      auto a = w.array("a");
      w.value(1).value("two");
      auto inner = w.object();
    }
    w.field("s", std::string("q\"b\\\n\t\x01")).raw("doc", "[1,2]");
    auto empty = w.array("e");
  }
  EXPECT_EQ(out,
            "{\"n\":-3,\"u\":18446744073709551615,\"ok\":true,\"x\":2.2,"
            "\"bits\":\"0xbeef\",\"a\":[1,\"two\",{}],"
            "\"s\":\"q\\\"b\\\\\\n\\t\\u0001\",\"doc\":[1,2],\"e\":[]}");
}

TEST(JsonWriter, FixedHasNoLengthLimit) {
  EXPECT_EQ(format_fixed(1e300, 1).size(), 303u);
  EXPECT_EQ(format_fixed(0.0005, 3), "0.001");
}

TEST(StatLines, PrefixScopesAndFormats) {
  std::string out;
  const StatLines st(out, "icilk_", "\r\n");
  st.add("a", 7).add("flag", true).fixed("rate", 0.5, 4);
  st.scoped("l2_").add("neg", std::int64_t{-1}).add("s", "x y");
  EXPECT_EQ(out,
            "STAT icilk_a 7\r\nSTAT icilk_flag 1\r\n"
            "STAT icilk_rate 0.5000\r\nSTAT icilk_l2_neg -1\r\n"
            "STAT icilk_l2_s x y\r\n");
}

TEST(JsonParse, ReadsWhatTheWriterWrites) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(
      " {\"a\":[1,-2.5e3,true,false,null],\"s\":\"x\\u00e9\\ud83d\\ude00\\/\","
      "\"big\":18446744073709551615} ",
      v, &err))
      << err;
  ASSERT_EQ(v.type, json::Value::Type::kObject);
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 5u);
  EXPECT_EQ(a->items[1].num, -2500);
  EXPECT_TRUE(a->items[2].b);
  EXPECT_EQ(a->items[4].type, json::Value::Type::kNull);
  EXPECT_EQ(v.find("s")->str, "x\xc3\xa9\xf0\x9f\x98\x80/");
  EXPECT_EQ(v.find("big")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad : {
           // Flight-bundle garbage cases.
           "", "{", "not json at all", "{\"flight_bundle\":1} extra",
           // Bad escapes and raw control characters.
           "\"\\x\"", "\"\\u12g4\"", "\"\\ud800\"", "\"\\udc00\"",
           "\"a\nb\"", "\"tab\there\"",
           // Unterminated containers and strings.
           "[1,2", "{\"a\":1", "{\"a\"", "\"open", "[1,]", "{\"a\":1,}",
           "{1:2}",
           // Bad numbers and literals.
           "01", "-", "1.", ".5", "1e", "+1", "0x10", "tru", "nul",
       }) {
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(bad, v, &err)) << bad;
    EXPECT_NE(err.find(" at offset "), std::string::npos) << bad;
  }
}

TEST(JsonParse, BoundsNesting) {
  json::Value v;
  EXPECT_TRUE(json::parse(std::string(200, '[') + std::string(200, ']'), v));
  EXPECT_FALSE(
      json::parse(std::string(100000, '[') + std::string(100000, ']'), v));
}

}  // namespace
}  // namespace icilk::obs
