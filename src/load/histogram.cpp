#include "load/histogram.hpp"

#include <cmath>
#include <cstdio>

namespace icilk::load {

std::uint64_t Histogram::percentile_ns(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= rank && seen > 0) return upper_edge(i);
  }
  return max_ns();
}

void Histogram::merge(const Histogram& o) {
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = o.counts_[i].load(std::memory_order_relaxed);
    if (c) counts_[i].fetch_add(c, std::memory_order_relaxed);
  }
  total_.fetch_add(o.total_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(o.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  std::uint64_t om = o.max_ns();
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (om > prev && !max_.compare_exchange_weak(prev, om,
                                                  std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::percentile_of(
    const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank && seen > 0) return upper_edge(static_cast<int>(i));
  }
  return 0;
}

std::uint64_t Histogram::max_edge_of(
    const std::vector<std::uint64_t>& counts) {
  for (std::size_t i = counts.size(); i-- > 0;) {
    if (counts[i] != 0) return upper_edge(static_cast<int>(i));
  }
  return 0;
}

std::string format_ns(double ns) {
  char buf[48];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  }
  return buf;
}

std::string Histogram::summary() const {
  std::string s;
  s += "n=" + std::to_string(count());
  s += " mean=" + format_ns(mean_ns());
  s += " p50=" + format_ns(static_cast<double>(percentile_ns(0.50)));
  s += " p95=" + format_ns(static_cast<double>(percentile_ns(0.95)));
  s += " p99=" + format_ns(static_cast<double>(percentile_ns(0.99)));
  s += " max=" + format_ns(static_cast<double>(max_ns()));
  return s;
}

}  // namespace icilk::load
