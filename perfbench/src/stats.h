#ifndef SARGUS_PERFBENCH_STATS_H_
#define SARGUS_PERFBENCH_STATS_H_

/// \file stats.h
/// \brief Percentile helper for the end-to-end benchmark.
///
/// Percentiles use the nearest-rank definition: the p-th percentile of n
/// samples is the value at sorted index ceil(p/100 * n) - 1. Summarize()
/// also reports the *tail* percentile: the highest of 90, 99, 99.9,
/// 99.99 and 99.999 that still has at least ten samples beyond it, so a
/// tail figure is never read off a handful of samples.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sargus::perfbench {

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr size_t kTailSamples = 10;

struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  /// Highest standard percentile with >= kTailSamples samples beyond it;
  /// 0 when even p90 lacks them.
  double tail_pct = 0;
  double tail = 0;
  double max = 0;
};

/// Nearest-rank percentile of an ascending-sorted, non-empty vector.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  idx = std::min(idx, sorted.size() - 1);
  return sorted[idx];
}

/// Highest standard percentile of `n` samples with >= kTailSamples
/// samples beyond it, or 0 when none qualifies.
inline double TailPercentile(size_t n) {
  static constexpr double kCandidates[] = {99.999, 99.99, 99.9, 99.0, 90.0};
  for (const double p : kCandidates) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    // Tolerate the rounding of (1 - p/100) so that exactly ten counts.
    if (beyond + 1e-6 >= static_cast<double>(kTailSamples)) return p;
  }
  return 0;
}

inline LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 50);
  s.p99 = PercentileSorted(samples, 99);
  s.tail_pct = TailPercentile(samples.size());
  if (s.tail_pct > 0) s.tail = PercentileSorted(samples, s.tail_pct);
  s.max = samples.back();
  return s;
}

/// Fixed-size log-linear latency histogram for run-long summaries, so
/// that memory does not grow with the number of samples: values (in us)
/// fall into 32 linear sub-buckets per power of two of nanoseconds, which
/// bounds the relative error of a reported percentile by about 3%.
class LatencyHistogram {
 public:
  void Add(double us) {
    const double ns = std::max(1.0, us * 1000.0);
    const int exp = std::min(kMaxExp, static_cast<int>(std::log2(ns)));
    const double base = std::ldexp(1.0, exp);
    const int sub = std::min(
        kSub - 1, static_cast<int>((ns - base) / base * kSub));
    ++counts_[static_cast<size_t>(exp * kSub + sub)];
    ++count_;
    max_ = std::max(max_, us);
  }

  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    max_ = std::max(max_, o.max_);
  }

  size_t count() const { return count_; }

  /// Nearest-rank percentile, reported at its bucket's midpoint.
  double Percentile(double p) const {
    if (count_ == 0) return 0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(count_));
    const auto target = static_cast<size_t>(std::max(1.0, rank));
    size_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= target) {
        const int exp = static_cast<int>(i) / kSub;
        const int sub = static_cast<int>(i) % kSub;
        const double base = std::ldexp(1.0, exp);
        const double mid = base + (sub + 0.5) * base / kSub;
        return std::min(mid / 1000.0, max_);
      }
    }
    return max_;
  }

  LatencySummary Summary() const {
    LatencySummary s;
    s.count = count_;
    if (count_ == 0) return s;
    s.p50 = Percentile(50);
    s.p99 = Percentile(99);
    s.tail_pct = TailPercentile(count_);
    if (s.tail_pct > 0) s.tail = Percentile(s.tail_pct);
    s.max = max_;
    return s;
  }

 private:
  static constexpr int kSub = 32;
  static constexpr int kMaxExp = 40;  // ~18 minutes in ns
  std::array<uint64_t, (kMaxExp + 1) * kSub> counts_{};
  size_t count_ = 0;
  double max_ = 0;
};

/// Median (mean of the middle pair for even counts); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace sargus::perfbench

#endif  // SARGUS_PERFBENCH_STATS_H_
