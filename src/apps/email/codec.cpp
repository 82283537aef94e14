#include "apps/email/codec.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace icilk::apps {

namespace {

constexpr std::size_t kWindow = 4096;  // 12-bit offsets
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 18;  // 4 bits: len - kMinMatch in [0,15]
constexpr int kHashBits = 13;
constexpr std::size_t kHashSize = 1u << kHashBits;

static_assert(std::endian::native == std::endian::little,
              "match_len reads the first differing byte off the low end");

std::uint32_t hash3(const unsigned char* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of a and b, at most `limit` bytes (both
/// readable that far). Eight bytes per step: the first differing byte is
/// the lowest set byte of the XOR of two little-endian words.
std::size_t match_len(const unsigned char* a, const unsigned char* b,
                      std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, a + len, 8);
    std::memcpy(&wb, b + len, 8);
    if (const std::uint64_t x = wa ^ wb; x != 0) {
      return len + static_cast<std::size_t>(std::countr_zero(x)) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

std::string lz_compress(std::string_view input) {
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  const std::size_t n = input.size();
  // Worst case: every token a literal (1 byte) plus one flag byte per
  // eight tokens. Sized once; tokens are written through `op`.
  std::string out(4 + n + (n + 7) / 8, '\0');
  auto* const base = reinterpret_cast<unsigned char*>(out.data());
  unsigned char* op = base;

  // Header: original length (varint-free, 4 bytes LE; inputs are small).
  for (int i = 0; i < 4; ++i) {
    *op++ = static_cast<unsigned char>((n >> (8 * i)) & 0xFF);
  }

  // Hash heads + previous-position chains, bounded by the window.
  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(n > 0 ? n : 1, -1);

  std::size_t pos = 0;
  unsigned char* flag = nullptr;
  int flag_fill = 8;  // forces a fresh flag byte on the first token
  auto begin_token = [&](bool is_match) {
    if (flag_fill == 8) {
      flag = op++;
      *flag = 0;
      flag_fill = 0;
    }
    if (is_match) *flag |= static_cast<unsigned char>(1u << flag_fill);
    ++flag_fill;
  };

  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (pos + kMinMatch <= n) {
      const std::uint32_t h = hash3(in + pos);
      const std::size_t limit = (n - pos) < kMaxMatch ? (n - pos) : kMaxMatch;
      const unsigned char* b = in + pos;
      std::int32_t cand = head[h];
      int probes = 32;
      // Greedy: the first candidate of the longest length wins, so only a
      // strictly longer match replaces the best. A candidate whose byte at
      // best_len differs cannot be longer, and once best_len reaches the
      // limit no later one can.
      while (cand >= 0 && probes-- > 0 &&
             pos - static_cast<std::size_t>(cand) <= kWindow) {
        const unsigned char* a = in + static_cast<std::size_t>(cand);
        if (a[best_len] == b[best_len]) {
          const std::size_t len = match_len(a, b, limit);
          if (len > best_len) {
            best_len = len;
            best_off = pos - static_cast<std::size_t>(cand);
            if (len == limit) break;
          }
        }
        cand = prev[static_cast<std::size_t>(cand)];
      }
      // Insert pos into the chain AFTER searching (old head becomes our
      // predecessor; never self-link).
      prev[pos] = head[h];
      head[h] = static_cast<std::int32_t>(pos);
    }

    if (best_len >= kMinMatch) {
      begin_token(true);
      // offset-1 in 12 bits | (len - kMinMatch) in top 4 bits of byte 2
      const std::size_t off = best_off - 1;
      op[0] = static_cast<unsigned char>(off & 0xFF);
      op[1] = static_cast<unsigned char>(((off >> 8) & 0x0F) |
                                         ((best_len - kMinMatch) << 4));
      op += 2;
      // Insert skipped positions into the hash chains.
      for (std::size_t k = 1; k < best_len && pos + k + kMinMatch <= n; ++k) {
        const std::uint32_t h2 = hash3(in + pos + k);
        prev[pos + k] = head[h2];
        head[h2] = static_cast<std::int32_t>(pos + k);
      }
      pos += best_len;
    } else {
      begin_token(false);
      *op++ = in[pos];
      ++pos;
    }
  }
  // Stored packed bodies should not carry the worst case's slack.
  out.resize(static_cast<std::size_t>(op - base));
  out.shrink_to_fit();
  return out;
}

bool lz_decompress(std::string_view input, std::string& output) {
  output.clear();
  if (input.size() < 4) return false;
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  const unsigned char* const in_end = in + input.size();
  std::size_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::size_t>(in[i]) << (8 * i);
  }
  // Every token byte yields at most 9 output bytes (a 2-byte match at most
  // 18, a literal 1, a flag byte 0): a longer claim is corrupt, and is
  // rejected before anything is sized to it.
  if (n > kMaxMatch / 2 * (input.size() - 4)) return false;
  output.resize(n);
  auto* const base = reinterpret_cast<unsigned char*>(output.data());
  unsigned char* op = base;
  unsigned char* const op_end = base + n;
  const unsigned char* ip = in + 4;
  unsigned flags = 0;
  int flag_left = 0;
  bool ok = true;
  while (op < op_end) {
    if (flag_left == 0) {
      if (ip >= in_end) {
        ok = false;
        break;
      }
      flags = *ip++;
      flag_left = 8;
    }
    const bool is_match = (flags & 1) != 0;
    flags >>= 1;
    --flag_left;
    if (is_match) {
      if (in_end - ip < 2) {
        ok = false;
        break;
      }
      const std::size_t off =
          static_cast<std::size_t>(ip[0] | ((ip[1] & 0x0F) << 8)) + 1;
      const std::size_t len = static_cast<std::size_t>(ip[1] >> 4) + kMinMatch;
      ip += 2;
      // A match past the claimed length overshoots it: corrupt.
      if (off > static_cast<std::size_t>(op - base) ||
          len > static_cast<std::size_t>(op_end - op)) {
        ok = false;
        break;
      }
      const unsigned char* src = op - off;
      if (off >= len) {
        std::memcpy(op, src, len);
      } else {
        for (std::size_t k = 0; k < len; ++k) op[k] = src[k];  // self-overlap
      }
      op += len;
    } else {
      if (ip >= in_end) {
        ok = false;
        break;
      }
      *op++ = *ip++;
    }
  }
  if (!ok) output.resize(static_cast<std::size_t>(op - base));
  return ok;
}

}  // namespace icilk::apps
