// The one encoding of every observability surface. JsonWriter renders the
// JSON documents (/latency, /parallelism, /timeseries, /health, /profile,
// flight bundles, Chrome traces), StatLines the `STAT <name> <value>`
// lines, and json::parse reads the documents back (bundles, tests).
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace icilk::obs {

/// `v` with exactly `digits` decimals (printf "%.*f").
std::string format_fixed(double v, int digits);

/// Streaming compact-JSON writer appending to a caller-owned string. The
/// caller may flush and clear that string between values.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) noexcept : out_(out) {}

  /// Closes the object or array it opened when it leaves scope.
  class Scope {
   public:
    ~Scope() { w_.close(close_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class JsonWriter;
    Scope(JsonWriter& w, char close) noexcept : w_(w), close_(close) {}
    JsonWriter& w_;
    char close_;
  };

  [[nodiscard]] Scope object() { return open('{', '}'); }
  [[nodiscard]] Scope array() { return open('[', ']'); }
  [[nodiscard]] Scope object(std::string_view k) { return key(k).object(); }
  [[nodiscard]] Scope array(std::string_view k) { return key(k).array(); }

  /// An object member's key; the next value or scope is its value.
  JsonWriter& key(std::string_view k);

  /// Integers as decimal; bool as true/false.
  template <std::integral T>
  JsonWriter& value(T v) {
    sep();
    if constexpr (std::same_as<T, bool>) {
      out_ += v ? "true" : "false";
    } else {
      char buf[24];
      out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }
    return *this;
  }
  JsonWriter& value(std::string_view s);
  /// An already-rendered JSON document, embedded verbatim.
  JsonWriter& raw(std::string_view doc);

  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }
  JsonWriter& fixed(std::string_view k, double v, int digits) {
    return key(k).raw(format_fixed(v, digits));
  }
  /// `v` as a "0x..." hex string.
  JsonWriter& hex(std::string_view k, std::uint64_t v);
  JsonWriter& raw(std::string_view k, std::string_view doc) {
    return key(k).raw(doc);
  }

 private:
  Scope open(char open, char close);
  void close(char c);
  /// Starts a value: a comma unless it opens a scope or follows a key.
  void sep() {
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }

  std::string& out_;
  bool need_comma_ = false;
};

/// One JSON object rendered to a string: `members(w)` writes its members.
template <typename F>
std::string json_object(F&& members) {
  std::string out;
  {
    JsonWriter w(out);
    auto doc = w.object();
    members(w);
  }
  return out;
}

/// `STAT <prefix><name> <value><eol>` lines appended to a caller-owned
/// string.
class StatLines {
 public:
  StatLines(std::string& out, std::string prefix, std::string eol)
      : out_(out), prefix_(std::move(prefix)), eol_(std::move(eol)) {}

  /// A sink whose names carry `infix` after this one's prefix.
  StatLines scoped(std::string_view infix) const {
    return StatLines(out_, prefix_ + std::string(infix), eol_);
  }

  /// Integers as decimal; bool as 1/0.
  template <std::integral T>
  const StatLines& add(std::string_view name, T v) const {
    if constexpr (std::same_as<T, bool>) return add(name, v ? "1" : "0");
    else return add(name, std::to_string(v));
  }
  const StatLines& add(std::string_view name, std::string_view v) const;
  const StatLines& fixed(std::string_view name, double v, int digits) const {
    return add(name, format_fixed(v, digits));
  }

 private:
  std::string& out_;
  std::string prefix_;
  std::string eol_;
};

namespace json {

struct Member;

/// A parsed JSON value.
struct Value {
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;              ///< string contents, or a number's literal
  std::vector<Value> items;     ///< array elements
  std::vector<Member> members;  ///< object members, in document order

  /// The first member named `key`, or null (also for non-objects).
  const Value* find(std::string_view key) const;
  /// A non-negative integer literal, exact beyond 2^53.
  std::uint64_t as_u64() const;
};

struct Member {
  std::string key;
  Value value;
};

/// Strict RFC 8259 parse of all of `text` into `out`. On malformed input
/// (bad escapes, raw control characters, bad numbers, unterminated
/// containers, trailing garbage, nesting past 256) returns false and sets
/// `*error` to "<what> at offset <n>".
bool parse(std::string_view text, Value& out, std::string* error = nullptr);

}  // namespace json

}  // namespace icilk::obs
