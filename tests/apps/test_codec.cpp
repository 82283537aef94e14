// Tests for the LZSS codec (email server's compress/print workload).
#include "apps/email/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "concurrent/rng.hpp"

namespace icilk::apps {
namespace {

// ---------------------------------------------------------------------------
// Reference codec: the straightforward byte-at-a-time LZSS that lz_compress
// and lz_decompress must reproduce exactly (same window, hash, probe limit,
// greedy choice and token format, hence the same bytes; same accept/reject
// verdict on any stream).
// ---------------------------------------------------------------------------

constexpr std::size_t kRefWindow = 4096;
constexpr std::size_t kRefMinMatch = 3;
constexpr std::size_t kRefMaxMatch = 18;
constexpr int kRefHashBits = 13;

std::uint32_t ref_hash3(const unsigned char* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kRefHashBits);
}

std::string ref_compress(std::string_view input) {
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  const std::size_t n = input.size();
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((n >> (8 * i)) & 0xFF));
  }
  std::vector<std::int32_t> head(std::size_t{1} << kRefHashBits, -1);
  std::vector<std::int32_t> prev(n > 0 ? n : 1, -1);
  std::size_t pos = 0;
  std::size_t flag_at = 0;
  int flag_fill = 8;
  auto begin_token = [&](bool is_match) {
    if (flag_fill == 8) {
      flag_at = out.size();
      out.push_back(0);
      flag_fill = 0;
    }
    if (is_match) out[flag_at] |= static_cast<char>(1 << flag_fill);
    ++flag_fill;
  };
  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (pos + kRefMinMatch <= n) {
      const std::uint32_t h = ref_hash3(in + pos);
      std::int32_t cand = head[h];
      int probes = 32;
      while (cand >= 0 && probes-- > 0 &&
             pos - static_cast<std::size_t>(cand) <= kRefWindow) {
        const std::size_t limit =
            (n - pos) < kRefMaxMatch ? (n - pos) : kRefMaxMatch;
        std::size_t len = 0;
        const unsigned char* a = in + static_cast<std::size_t>(cand);
        const unsigned char* b = in + pos;
        while (len < limit && a[len] == b[len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_off = pos - static_cast<std::size_t>(cand);
          if (len == kRefMaxMatch) break;
        }
        cand = prev[static_cast<std::size_t>(cand)];
      }
      prev[pos] = head[h];
      head[h] = static_cast<std::int32_t>(pos);
    }
    if (best_len >= kRefMinMatch) {
      begin_token(true);
      const std::uint16_t off = static_cast<std::uint16_t>(best_off - 1);
      const std::uint8_t lenc =
          static_cast<std::uint8_t>(best_len - kRefMinMatch);
      out.push_back(static_cast<char>(off & 0xFF));
      out.push_back(static_cast<char>(((off >> 8) & 0x0F) | (lenc << 4)));
      for (std::size_t k = 1; k < best_len && pos + k + kRefMinMatch <= n;
           ++k) {
        const std::uint32_t h2 = ref_hash3(in + pos + k);
        prev[pos + k] = head[h2];
        head[h2] = static_cast<std::int32_t>(pos + k);
      }
      pos += best_len;
    } else {
      begin_token(false);
      out.push_back(static_cast<char>(in[pos]));
      ++pos;
    }
  }
  return out;
}

// No reserve of the header's claimed length: what is allocated changes no
// verdict, and a hostile claim would reserve up to 4 GiB.
bool ref_decompress(std::string_view input, std::string& output) {
  output.clear();
  if (input.size() < 4) return false;
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  std::size_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::size_t>(in[i]) << (8 * i);
  }
  std::size_t pos = 4;
  std::uint8_t flags = 0;
  int flag_left = 0;
  while (output.size() < n) {
    if (flag_left == 0) {
      if (pos >= input.size()) return false;
      flags = in[pos++];
      flag_left = 8;
    }
    const bool is_match = (flags & 1) != 0;
    flags >>= 1;
    --flag_left;
    if (is_match) {
      if (pos + 2 > input.size()) return false;
      const std::uint16_t b0 = in[pos];
      const std::uint16_t b1 = in[pos + 1];
      pos += 2;
      const std::size_t off =
          static_cast<std::size_t>(b0 | ((b1 & 0x0F) << 8)) + 1;
      const std::size_t len =
          static_cast<std::size_t>(b1 >> 4) + kRefMinMatch;
      if (off > output.size()) return false;
      const std::size_t start = output.size() - off;
      for (std::size_t k = 0; k < len; ++k) {
        output.push_back(output[start + k]);
      }
    } else {
      if (pos >= input.size()) return false;
      output.push_back(static_cast<char>(in[pos++]));
    }
  }
  return output.size() == n;
}

// Input families of the oracle sweep.
enum class Alphabet { kLexicon, kBytes, k2, k4, k6, k26 };

std::string make_input(Alphabet a, std::size_t len, std::uint64_t seed) {
  static const char* kWords[] = {
      "the",     "scheduler", "deque",   "priority", "latency",  "worker",
      "steal",   "resume",    "suspend", "request",  "response", "aging",
      "prompt",  "bitfield",  "queue",   "mug",      "email",    "server",
      "message", "compress"};
  Xoshiro256 rng(seed, static_cast<std::uint64_t>(a));
  std::string s;
  s.reserve(len + 16);
  while (s.size() < len) {
    switch (a) {
      case Alphabet::kLexicon:
        s += kWords[rng.bounded(std::size(kWords))];
        s += ' ';
        break;
      case Alphabet::kBytes:
        s.push_back(static_cast<char>(rng.next() & 0xFF));
        break;
      case Alphabet::k2:
        s.push_back(static_cast<char>('a' + rng.bounded(2)));
        break;
      case Alphabet::k4:
        s.push_back(static_cast<char>('a' + rng.bounded(4)));
        break;
      case Alphabet::k6:
        s.push_back(static_cast<char>('a' + rng.bounded(6)));
        break;
      case Alphabet::k26:
        s.push_back(static_cast<char>('a' + rng.bounded(26)));
        break;
    }
  }
  s.resize(len);
  return s;
}

constexpr Alphabet kAlphabets[] = {Alphabet::kLexicon, Alphabet::kBytes,
                                   Alphabet::k2,       Alphabet::k4,
                                   Alphabet::k6,       Alphabet::k26};
constexpr std::size_t kSizes[] = {0,    1,    2,    3,    4,    5,    6,
                                  7,    8,    9,    17,   18,   19,   255,
                                  2048, 4095, 4096, 4097, 8192, 9000, 20000,
                                  70000};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// Index of the first byte where a and b differ (or the shorter length).
std::size_t first_diff(std::string_view a, std::string_view b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

/// Both decoders give the same verdict on `stream`, and the same output
/// when they accept it. Returns the reference's verdict.
bool expect_same_decode(std::string_view stream, const std::string& what) {
  std::string got, want;
  const bool ok = lz_decompress(stream, got);
  const bool ref_ok = ref_decompress(stream, want);
  EXPECT_EQ(ok, ref_ok) << what;
  if (ok && ref_ok) {
    EXPECT_TRUE(got == want) << what << ": sizes " << got.size() << " vs "
                             << want.size() << ", first diff at "
                             << first_diff(got, want);
  }
  return ref_ok;
}

std::string roundtrip(const std::string& in) {
  const std::string packed = lz_compress(in);
  std::string out;
  EXPECT_TRUE(lz_decompress(packed, out));
  return out;
}

TEST(Codec, EmptyInput) { EXPECT_EQ(roundtrip(""), ""); }

TEST(Codec, ShortLiteralOnly) { EXPECT_EQ(roundtrip("ab"), "ab"); }

TEST(Codec, SimpleText) {
  const std::string s = "hello hello hello world world!";
  EXPECT_EQ(roundtrip(s), s);
}

TEST(Codec, HighlyRepetitiveCompressesWell) {
  const std::string s(10000, 'z');
  const std::string packed = lz_compress(s);
  EXPECT_LT(packed.size(), s.size() / 4);
  std::string out;
  ASSERT_TRUE(lz_decompress(packed, out));
  EXPECT_EQ(out, s);
}

TEST(Codec, OverlappingMatchSelfCopy) {
  // "abcabcabc..." forces matches whose source overlaps the destination.
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "abc";
  EXPECT_EQ(roundtrip(s), s);
}

TEST(Codec, RandomBinaryDataSurvives) {
  Xoshiro256 rng(99);
  std::string s;
  for (int i = 0; i < 20000; ++i) {
    s.push_back(static_cast<char>(rng.next() & 0xFF));
  }
  // Incompressible data must still round-trip (expansion is fine).
  EXPECT_EQ(roundtrip(s), s);
}

TEST(Codec, MixedStructuredData) {
  Xoshiro256 rng(5);
  std::string s;
  const std::string words[] = {"alpha ", "beta ", "gamma ", "delta "};
  for (int i = 0; i < 5000; ++i) s += words[rng.bounded(4)];
  const std::string packed = lz_compress(s);
  EXPECT_LT(packed.size(), s.size());  // prose must compress
  std::string out;
  ASSERT_TRUE(lz_decompress(packed, out));
  EXPECT_EQ(out, s);
}

TEST(Codec, AllInputSizesZeroToN) {
  // Sweep sizes across flag-byte and window boundaries.
  Xoshiro256 rng(17);
  std::string base;
  for (int i = 0; i < 9000; ++i) {
    base.push_back(static_cast<char>('a' + rng.bounded(6)));
  }
  for (std::size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 255u, 4095u, 4096u,
                          4097u, 8192u, 9000u}) {
    const std::string s = base.substr(0, len);
    EXPECT_EQ(roundtrip(s), s) << "len=" << len;
  }
}

TEST(Codec, CorruptInputRejected) {
  std::string out;
  EXPECT_FALSE(lz_decompress("", out));
  EXPECT_FALSE(lz_decompress("abc", out));            // truncated header
  // Claimed length 100 with no body.
  std::string bogus = {'\x64', 0, 0, 0};
  EXPECT_FALSE(lz_decompress(bogus, out));
  // Match referring before the start of output.
  std::string evil = {'\x10', 0, 0, 0, '\x01', '\x00', '\x00'};
  EXPECT_FALSE(lz_decompress(evil, out));
}

TEST(Codec, HugeHeaderClaimRejectedBeforeAllocating) {
  // A 2-byte match token decodes to at most 18 bytes, so a body of b
  // bytes can never yield more than 9 * b: a bigger claim is rejected
  // before the output buffer is sized to it.
  for (const std::uint32_t claim : {0x7FFFFFFFu, 0xFFFFFFFFu}) {
    std::string m;
    for (int i = 0; i < 4; ++i) {
      m.push_back(static_cast<char>((claim >> (8 * i)) & 0xFF));
    }
    m += std::string{0, 'a', 'b'};  // flag byte, two literals
    std::string out;
    EXPECT_FALSE(lz_decompress(m, out)) << claim;
    EXPECT_LT(out.capacity(), 64u << 10) << claim;
  }
}

TEST(Codec, TruncatedStreamRejected) {
  const std::string s(1000, 'q');
  const std::string packed = lz_compress(s);
  std::string out;
  EXPECT_FALSE(lz_decompress(packed.substr(0, packed.size() / 2), out));
}

TEST(CodecOracle, CompressMatchesReferenceByteForByte) {
  for (const Alphabet a : kAlphabets) {
    for (const std::size_t len : kSizes) {
      for (const std::uint64_t seed : kSeeds) {
        const std::string in = make_input(a, len, seed);
        const std::string got = lz_compress(in);
        const std::string want = ref_compress(in);
        ASSERT_TRUE(got == want)
            << "alphabet " << static_cast<int>(a) << " len " << len
            << " seed " << seed << ": sizes " << got.size() << " vs "
            << want.size() << ", first diff at " << first_diff(got, want);
        std::string out;
        ASSERT_TRUE(lz_decompress(got, out));
        ASSERT_TRUE(out == in) << "roundtrip, len " << len;
      }
    }
  }
}

TEST(CodecOracle, DecompressVerdictMatchesReferenceOnMutations) {
  std::size_t accepted = 0, rejected = 0;
  auto same = [&](std::string_view stream, const std::string& what) {
    ++(expect_same_decode(stream, what) ? accepted : rejected);
  };
  for (const Alphabet a : kAlphabets) {
    for (const std::size_t len : kSizes) {
      for (const std::uint64_t seed : kSeeds) {
        const std::string packed = ref_compress(make_input(a, len, seed));
        const std::string tag = "alphabet " +
                                std::to_string(static_cast<int>(a)) +
                                " len " + std::to_string(len) + " seed " +
                                std::to_string(seed);
        same(packed, tag + " intact");
        Xoshiro256 rng(seed, 1000 + len);
        // A flipped byte past the header: flag bits, offsets, lengths
        // and literals all change meaning.
        for (int i = 0; i < 4 && packed.size() > 4; ++i) {
          std::string m = packed;
          const std::size_t at =
              4 + rng.bounded(static_cast<std::uint32_t>(m.size() - 4));
          m[at] = static_cast<char>(m[at] ^ (1 + rng.bounded(255)));
          same(m, tag + " flip at " + std::to_string(at));
        }
        // Truncation anywhere, header included.
        for (int i = 0; i < 3; ++i) {
          const std::size_t cut =
              rng.bounded(static_cast<std::uint32_t>(packed.size()));
          same(std::string_view(packed).substr(0, cut),
               tag + " cut at " + std::to_string(cut));
        }
        // A header that claims a different length: one more or one less
        // than the body holds, or a flipped bit in the low three bytes.
        for (const std::size_t claim :
             {len + 1, len - 1,
              len ^ (std::size_t{1} << rng.bounded(24))}) {
          if (claim > 0xFFFFFFu + len) continue;  // len - 1 at len 0
          std::string m = packed;
          for (int i = 0; i < 4; ++i) {
            m[static_cast<std::size_t>(i)] =
                static_cast<char>((claim >> (8 * i)) & 0xFF);
          }
          same(m, tag + " claim " + std::to_string(claim));
        }
      }
    }
  }
  // Both verdicts occur (a flipped literal still decodes).
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST(CodecOracle, DecompressVerdictMatchesReferenceOnRandomStreams) {
  // Streams no compressor wrote: overshooting matches, offsets before the
  // start, trailing bytes after the last token, empty bodies.
  Xoshiro256 rng(4242);
  std::size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t claim = rng.bounded(i % 2 == 0 ? 64 : 400);
    std::string m;
    for (int b = 0; b < 4; ++b) {
      m.push_back(static_cast<char>((claim >> (8 * b)) & 0xFF));
    }
    const std::size_t body = rng.bounded(80);
    for (std::size_t b = 0; b < body; ++b) {
      // Bias flag bytes toward literals so some streams decode fully.
      m.push_back(static_cast<char>(rng.next() & (b % 9 == 0 ? 0x11 : 0xFF)));
    }
    accepted += expect_same_decode(m, "random stream " + std::to_string(i));
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 19900u);
}

}  // namespace
}  // namespace icilk::apps
