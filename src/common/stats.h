// Metric primitives: counters, gauges with time series, and Jain's fairness index.
//
// Figure 6 reports invalidations / flushed pages / remote accesses *per memory access*;
// Figure 8 (left) tracks directory-entry usage over normalized runtime; Figure 8 (right)
// scores allocator balance with Jain's fairness index. These helpers back all three.
#ifndef MIND_SRC_COMMON_STATS_H_
#define MIND_SRC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mind {

// Jain's fairness index over per-entity loads: (sum x)^2 / (n * sum x^2). 1.0 means perfectly
// balanced; 1/n means all load on one entity. (Jain, Chiu & Hawe, DEC-TR-301, 1984.)
[[nodiscard]] inline double JainFairnessIndex(const std::vector<uint64_t>& loads) {
  if (loads.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (uint64_t x : loads) {
    const auto v = static_cast<double>(x);
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) {
    return 1.0;  // No load anywhere is trivially fair.
  }
  return (sum * sum) / (static_cast<double>(loads.size()) * sum_sq);
}

// A named monotonic counter.
struct Counter {
  uint64_t value = 0;
  void Add(uint64_t delta = 1) { value += delta; }
};

// Periodic samples of a gauge (e.g. #used directory entries) against a monotonically
// increasing x (e.g. simulated time), for time-series figures.
class GaugeSeries {
 public:
  void Sample(uint64_t x, uint64_t value) { samples_.push_back({x, value}); }

  struct Point {
    uint64_t x;
    uint64_t value;
  };

  [[nodiscard]] const std::vector<Point>& samples() const { return samples_; }

 private:
  std::vector<Point> samples_;
};

}  // namespace mind

#endif  // MIND_SRC_COMMON_STATS_H_
