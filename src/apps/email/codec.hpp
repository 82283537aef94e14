// LZSS compression codec — the workload behind the email server's
// `compress` and `print` operations (print = decompress + format).
//
// Classic LZSS: a 4 KiB sliding window, minimum match 3, maximum 18.
// Tokens are grouped eight per flag byte; a set bit means a 2-byte match
// token (12-bit backward offset, 4-bit length-3), a clear bit a literal.
// Compression uses 3-byte hash chains over the window, which makes the
// operation meaningfully CPU-bound — matching the role this computation
// plays in the benchmark (lowest-priority background-ish work).
#pragma once

#include <string>
#include <string_view>

namespace icilk::apps {

std::string lz_compress(std::string_view input);

/// Inverse of lz_compress. Returns false on corrupt input (output state
/// unspecified then). A header that claims more than 9 output bytes per
/// body byte (the most a match token can yield) is rejected before the
/// output is sized to it.
bool lz_decompress(std::string_view input, std::string& output);

}  // namespace icilk::apps
