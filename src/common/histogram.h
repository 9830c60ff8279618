// Log-bucketed latency histogram with percentile queries.
//
// Used by the replay engine and the benches to report access-latency distributions without
// storing every sample. Buckets are (value-range/64)-granular within each power-of-two decade,
// giving <1.6% relative error on percentile queries — ample for reproducing figure shapes.
#ifndef MIND_SRC_COMMON_HISTOGRAM_H_
#define MIND_SRC_COMMON_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/common/bitops.h"

namespace mind {

// One-shot distribution summary (Histogram::Summary): the fields every report
// and the metrics-registry exporter print, computed once instead of four
// separate Percentile walks at each call site.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;

  friend bool operator==(const HistogramSummary&, const HistogramSummary&) = default;
};

class Histogram {
 public:
  static constexpr int kSubBuckets = 64;
  static constexpr int kDecades = 40;  // Covers values up to 2^40 ns ~ 18 minutes.

  void Record(uint64_t value) {
    ++count_;
    sum_ += value;
    max_ = std::max(max_, value);
    min_ = count_ == 1 ? value : std::min(min_, value);
    buckets_[BucketIndex(value)]++;
  }

  // Records `n` samples of the same value in O(1) — state is bit-identical to n Record
  // calls. The replay engine uses this for uniform-latency hit runs.
  void RecordN(uint64_t value, uint64_t n) {
    if (n == 0) {
      return;
    }
    min_ = count_ == 0 ? value : std::min(min_, value);
    count_ += n;
    sum_ += value * n;
    max_ = std::max(max_, value);
    buckets_[BucketIndex(value)] += n;
  }

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] uint64_t sum() const { return sum_; }
  [[nodiscard]] uint64_t max() const { return max_; }
  [[nodiscard]] uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Returns the approximate value at quantile q in [0, 1].
  [[nodiscard]] uint64_t Percentile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const auto target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        return BucketUpperBound(i);
      }
    }
    return max_;
  }

  // The standard report summary, one pass per percentile over the buckets.
  [[nodiscard]] HistogramSummary Summary() const {
    HistogramSummary s;
    s.count = count_;
    s.min = min();
    s.max = max_;
    s.mean = Mean();
    s.p50 = Percentile(0.50);
    s.p90 = Percentile(0.90);
    s.p99 = Percentile(0.99);
    s.p999 = Percentile(0.999);
    return s;
  }

  void Merge(const Histogram& other) {
    if (other.count_ == 0) {
      return;
    }
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

  // Exact state equality (every bucket), used by the replay determinism tests.
  friend bool operator==(const Histogram& a, const Histogram& b) = default;

 private:
  static constexpr size_t kBucketCount = static_cast<size_t>(kDecades) * kSubBuckets;

  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) {
      return static_cast<size_t>(value);
    }
    const uint32_t decade = Log2Floor(value) - 5;  // log2(kSubBuckets) - 1 == 5.
    const uint64_t sub = value >> (decade - 1);    // In [kSubBuckets, 2 * kSubBuckets).
    const size_t idx = static_cast<size_t>(decade) * kSubBuckets +
                       static_cast<size_t>(sub - kSubBuckets);
    return std::min(idx, kBucketCount - 1);
  }

  static uint64_t BucketUpperBound(size_t index) {
    if (index < kSubBuckets) {
      return index;
    }
    const uint64_t decade = index / kSubBuckets;
    const uint64_t sub = index % kSubBuckets;
    return (kSubBuckets + sub + 1) << (decade - 1);
  }

  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  uint64_t min_ = 0;
  std::array<uint64_t, kBucketCount> buckets_{};
};

}  // namespace mind

#endif  // MIND_SRC_COMMON_HISTOGRAM_H_
