#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace icilk::obs {

namespace {

// Two-character escapes: kEscaped[i] is written as a backslash and
// kEscapeCode[i]. The writer leaves '/' as is.
constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t/";
constexpr std::string_view kEscapeCode = "\"\\bfnrt/";

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  std::size_t clean = 0;  // s[clean, i) needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, clean, i - clean);
    clean = i + 1;
    if (const std::size_t e = kEscaped.find(static_cast<char>(c));
        e != std::string_view::npos) {
      out += '\\';
      out += kEscapeCode[e];
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    }
  }
  out.append(s, clean, s.size() - clean);
  out += '"';
}

}  // namespace

std::string format_fixed(double v, int digits) {
  // Fits DBL_MAX's 309 integer digits, a sign, a point and 20 decimals.
  // to_chars prints exactly what printf's "%.*f" does, several times faster.
  char buf[340];
  const int prec = std::clamp(digits, 0, 20);
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, prec);
  return std::string(buf, r.ptr);
}

JsonWriter::Scope JsonWriter::open(char open, char close) {
  sep();
  out_ += open;
  need_comma_ = false;
  return Scope(*this, close);
}

void JsonWriter::close(char c) {
  out_ += c;
  need_comma_ = true;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  sep();
  append_quoted(out_, k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  sep();
  append_quoted(out_, s);
  return *this;
}

JsonWriter& JsonWriter::hex(std::string_view k, std::uint64_t v) {
  char buf[24] = "0x";
  const char* end = std::to_chars(buf + 2, buf + sizeof buf, v, 16).ptr;
  return field(k, std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

JsonWriter& JsonWriter::raw(std::string_view doc) {
  sep();
  out_ += doc;
  return *this;
}

const StatLines& StatLines::add(std::string_view name,
                                std::string_view v) const {
  out_ += "STAT ";
  out_ += prefix_;
  out_ += name;
  out_ += ' ';
  out_ += v;
  out_ += eol_;
  return *this;
}

namespace json {

const Value* Value::find(std::string_view key) const {
  for (const Member& m : members) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

std::uint64_t Value::as_u64() const {
  std::uint64_t v = 0;
  const char* end = str.data() + str.size();
  const auto r = std::from_chars(str.data(), end, v);
  if (type == Type::kNumber && r.ec == std::errc() && r.ptr == end) return v;
  return num > 0 ? static_cast<std::uint64_t>(num) : 0;
}

namespace {

constexpr int kMaxDepth = 256;

void append_utf8(std::string& out, unsigned cp) {
  static constexpr unsigned char kLead[] = {0, 0, 0xC0, 0xE0, 0xF0};
  const int n = cp < 0x80 ? 1 : cp < 0x800 ? 2 : cp < 0x10000 ? 3 : 4;
  out += static_cast<char>(n == 1 ? cp : kLead[n] | (cp >> (6 * (n - 1))));
  for (int k = n - 2; k >= 0; --k) {
    out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
  }
}

struct Parser {
  std::string_view s;
  std::size_t i = 0;
  std::string err;

  bool fail(const char* what) {
    if (err.empty()) {
      err = std::string(what) + " at offset " + std::to_string(i);
    }
    return false;
  }

  void ws() {
    i = std::min(s.find_first_not_of(" \t\n\r", i), s.size());
  }
  bool eat(char c) {
    ws();
    if (i >= s.size() || s[i] != c) return false;
    ++i;
    return true;
  }
  bool digits() {
    const std::size_t from = i;
    i = std::min(s.find_first_not_of("0123456789", i), s.size());
    return i > from;
  }
  bool hex4(unsigned& cp) {
    if (s.size() - i < 4) return false;
    const char* p = s.data() + i;
    i += 4;
    return std::from_chars(p, p + 4, cp, 16).ptr == p + 4;
  }
  bool literal(std::string_view lit) {
    if (s.substr(i, lit.size()) != lit) return fail("bad literal");
    i += lit.size();
    return true;
  }

  bool string(std::string& out);
  bool number(Value& v);
  bool value(Value& v, int depth);
};

bool Parser::string(std::string& out) {
  if (i >= s.size() || s[i] != '"') return fail("expected string");
  ++i;
  while (i < s.size()) {
    const unsigned char c = static_cast<unsigned char>(s[i++]);
    if (c == '"') return true;
    if (c < 0x20) return fail("raw control char in string");
    if (c != '\\') {
      out += static_cast<char>(c);
      continue;
    }
    if (i >= s.size()) break;
    const char e = s[i++];
    if (const std::size_t at = kEscapeCode.find(e);
        at != std::string_view::npos) {
      out += kEscaped[at];
      continue;
    }
    if (e != 'u') return fail("bad escape");
    unsigned cp = 0;
    if (!hex4(cp)) return fail("bad \\u escape");
    if (cp >= 0xD800 && cp < 0xDC00) {
      unsigned lo = 0;
      if (s.substr(i, 2) != "\\u") return fail("lone surrogate");
      i += 2;
      if (!hex4(lo) || lo < 0xDC00 || lo > 0xDFFF) {
        return fail("bad surrogate pair");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return fail("lone surrogate");
    }
    append_utf8(out, cp);
  }
  return fail("unterminated string");
}

bool Parser::number(Value& v) {
  const std::size_t from = i;
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return fail("bad number");
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return fail("bad fraction");
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return fail("bad exponent");
  }
  v.type = Value::Type::kNumber;
  v.str.assign(s.substr(from, i - from));
  std::from_chars(v.str.data(), v.str.data() + v.str.size(), v.num);
  return true;
}

bool Parser::value(Value& v, int depth) {
  if (depth > kMaxDepth) return fail("nesting too deep");
  ws();
  if (i >= s.size()) return fail("unexpected end");
  switch (s[i]) {
    case '{':
      ++i;
      v.type = Value::Type::kObject;
      if (eat('}')) return true;
      do {
        ws();
        Member m;
        if (!string(m.key)) return false;
        if (!eat(':')) return fail("expected ':'");
        if (!value(m.value, depth + 1)) return false;
        v.members.push_back(std::move(m));
      } while (eat(','));
      return eat('}') || fail("expected ',' or '}'");
    case '[':
      ++i;
      v.type = Value::Type::kArray;
      if (eat(']')) return true;
      do {
        v.items.emplace_back();
        if (!value(v.items.back(), depth + 1)) return false;
      } while (eat(','));
      return eat(']') || fail("expected ',' or ']'");
    case '"':
      v.type = Value::Type::kString;
      return string(v.str);
    case 't':
    case 'f':
      v.type = Value::Type::kBool;
      v.b = s[i] == 't';
      return literal(v.b ? "true" : "false");
    case 'n':
      return literal("null");
    default:
      return number(v);
  }
}

}  // namespace

bool parse(std::string_view text, Value& out, std::string* error) {
  Parser p{text, 0, {}};
  out = Value{};
  bool ok = p.value(out, 0);
  p.ws();
  if (ok && p.i != text.size()) ok = p.fail("trailing garbage");
  if (!ok && error != nullptr) *error = p.err;
  return ok;
}

}  // namespace json

}  // namespace icilk::obs
