/// Self-test for the benchmark's percentile helper (src/stats.h).
/// Build and run with `python3 perfbench/run.py --self-test`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int main() {
  using namespace sargus::perfbench;

  // Nearest rank: p50 of 1..100 is 50, p99 is 99.
  const LatencySummary s100 = Summarize(OneTo(100));
  Expect(s100.count == 100, "count of 100 samples");
  Expect(s100.p50 == 50 && s100.p99 == 99, "nearest-rank p50/p99");
  Expect(s100.max == 100, "max");
  // 100 samples: p90 has exactly 10 beyond it, p99 only 1.
  Expect(s100.tail_pct == 90 && s100.tail == 90, "tail of 100 is p90");

  // 1000 samples: p99 has exactly 10 beyond it; p99.9 has 1.
  const LatencySummary s1000 = Summarize(OneTo(1000));
  Expect(s1000.tail_pct == 99 && s1000.tail == 990, "tail of 1000 is p99");
  // 999 samples: p99 has 9.99 beyond it, so the tail falls back to p90.
  Expect(TailPercentile(999) == 90, "tail of 999 is p90");
  Expect(TailPercentile(10000) == 99.9, "tail of 10000 is p99.9");
  Expect(TailPercentile(1000000) == 99.999, "tail of 1e6 is p99.999");
  // Fewer than 100 samples: not even p90 qualifies.
  Expect(TailPercentile(99) == 0, "no tail below 100 samples");
  Expect(Summarize(OneTo(50)).tail_pct == 0, "summary without tail");

  // Order of input does not matter; empty input is all zeros.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  Expect(Summarize(shuffled).p50 == 3, "p50 of unsorted input");
  Expect(Summarize({}).count == 0 && Summarize({}).p99 == 0, "empty");

  // The histogram agrees with the exact summary within its bucket error.
  LatencyHistogram h;
  for (double v : OneTo(10000)) h.Add(v);
  const LatencySummary hs = h.Summary();
  Expect(hs.count == 10000 && hs.tail_pct == 99.9, "histogram count/tail");
  Expect(std::abs(hs.p50 - 5000) / 5000 < 0.03, "histogram p50 within 3%");
  Expect(std::abs(hs.p99 - 9900) / 9900 < 0.03, "histogram p99 within 3%");
  Expect(hs.max == 10000, "histogram max is exact");
  LatencyHistogram merged;
  merged.Merge(h);
  merged.Merge(h);
  Expect(merged.count() == 20000 && merged.Percentile(50) == hs.p50,
         "merged histogram");
  Expect(LatencyHistogram().Summary().count == 0, "empty histogram");

  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  Expect(Median({}) == 0, "empty median");

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
