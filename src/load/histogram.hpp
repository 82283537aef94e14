// Latency histogram with HDR-style log-linear buckets.
//
// Range 100ns .. ~100s with <= ~1% relative error: values are bucketed by
// (exponent of 2, 64 linear sub-buckets). Recording is lock-free
// (per-bucket atomic increments) so many client connections can record
// into one histogram; percentile queries run at quiescence.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace icilk::load {

class Histogram {
 public:
  static constexpr int kSubBits = 6;                 // 64 sub-buckets
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kExponents = 40;              // up to ~2^39 ns (~9min)
  static constexpr int kBuckets = kExponents * kSub;

  Histogram() : counts_(kBuckets) {}

  // Atomics are not movable; "moving" a histogram copies its counts. Only
  // done at quiescence (collecting trial results), so a racy copy is fine.
  Histogram(Histogram&& o) noexcept : counts_(kBuckets) { merge(o); }
  Histogram& operator=(Histogram&& o) noexcept {
    if (this != &o) {
      reset();
      merge(o);
    }
    return *this;
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value_ns) noexcept {
    counts_[index_of(value_ns)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value_ns, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (value_ns > prev &&
           !max_.compare_exchange_weak(prev, value_ns,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  double mean_ns() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }

  std::uint64_t max_ns() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Value at quantile q in [0,1]; upper edge of the containing bucket.
  std::uint64_t percentile_ns(double q) const;

  /// Merges another histogram's counts into this one.
  void merge(const Histogram& o);

  void reset();

  /// "p50=1.2ms p95=3.4ms p99=7.8ms" style one-liner for bench output.
  std::string summary() const;

  // Windowed digests over a cumulative histogram: snapshot the buckets,
  // difference two snapshots bucket by bucket, and read the difference
  // with the same rank rule and bucket edges as percentile_ns.

  /// Copy of the per-bucket counts (kBuckets entries).
  std::vector<std::uint64_t> bucket_counts() const;
  /// percentile_ns over a bucket-count vector (0 when it is empty).
  static std::uint64_t percentile_of(const std::vector<std::uint64_t>& counts,
                                     double q);
  /// Upper edge of the highest non-empty bucket of `counts` (0 if none).
  static std::uint64_t max_edge_of(const std::vector<std::uint64_t>& counts);

 private:
  static int index_of(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<int>(v);
    const int exp = 63 - __builtin_clzll(v);          // top bit position
    const int shift = exp - kSubBits;                 // keep kSubBits of mantissa
    int idx = ((exp - kSubBits + 1) << kSubBits) +
              static_cast<int>((v >> shift) & (kSub - 1));
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  static std::uint64_t upper_edge(int idx) noexcept {
    if (idx < kSub) return static_cast<std::uint64_t>(idx);
    const int block = idx >> kSubBits;                // >= 1
    const int sub = idx & (kSub - 1);
    const int exp = block + kSubBits - 1;
    return (std::uint64_t{1} << exp) +
           ((static_cast<std::uint64_t>(sub) + 1) << (exp - kSubBits)) - 1;
  }

  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Formats nanoseconds human-readably (us/ms/s).
std::string format_ns(double ns);

}  // namespace icilk::load
