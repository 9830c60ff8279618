// The Bounded Splitting algorithm (§5).
//
// The directory must track coherence at *some* granularity. Fine regions avoid false
// invalidations but blow past the SRAM slot budget; coarse regions fit but invalidate pages
// that were never requested. Bounded Splitting resolves the tension dynamically:
//
//   - Time is divided into fixed-length epochs (100 ms default).
//   - Each directory entry counts the pages *falsely invalidated* within the epoch.
//   - At each epoch boundary, the threshold t = Σf_i / (c · N) is computed, where N is the
//     number of M-sized base regions in the allocated space and c a tuning constant.
//   - Regions with f > t split in half (down to the 4 KB page floor); buddy pairs whose
//     combined count stays well below t merge back (up to the M-sized base region cap).
//   - c adapts so data-plane utilization stays below 95% (§5, "From theory to practice").
//
// Theorem 5.1 bounds the sub-regions generated by one M-sized region at
// (⌈f/t⌉ − 1)(1 + log2 M); with t as above the directory never needs more than
// c · N · (1 + log2 M) entries. `TheoremBound` exposes the bound for the property tests.
//
// An epoch boundary costs O(entries that changed during the epoch), not O(directory). The
// switch control plane reads per-entry counters; the simulator reaches the same decisions
// from bookkeeping the directory keeps as entries change (directory.h): Σf is a running
// total, split candidates come from the epoch-active list, quiet streaks are stamps, and
// merge candidates come from the watch-set of pairs that something a merge decision reads
// has touched since they were last examined. Each candidate list is applied in ascending
// base order, the order a walk of the whole directory would produce, so every decision is
// the same as that walk's.
#ifndef MIND_SRC_CONTROLPLANE_BOUNDED_SPLITTING_H_
#define MIND_SRC_CONTROLPLANE_BOUNDED_SPLITTING_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/dataplane/directory.h"
#include "src/obs/trace.h"

namespace mind {

struct BoundedSplittingConfig {
  bool enabled = true;
  // Paper default (Fig. 9 right). 0 means no epoch boundary ever fires: MaybeRunEpoch
  // does nothing and only RunEpoch forces one.
  SimTime epoch_length = 100 * kMillisecond;
  uint64_t initial_region_size = kDefaultInitialRegionSize;  // 16 KB default.
  uint64_t base_region_size = kDefaultBaseRegionSize;        // M = 2 MB.
  uint64_t min_region_size = kMinRegionSize;                 // 4 KB floor.
  double initial_c = 1.0;
  double min_c = 0.25;
  double max_c = 4096.0;
  // c scales the entry budget: t = Σf / (c·N), so larger c means a lower threshold and
  // more splitting headroom (worst case c·N·(1+log2 M) entries). Above target_utilization
  // c shrinks (throttle splits); below low_utilization it grows (§5, "From theory to
  // practice").
  double target_utilization = 0.95;
  double low_utilization = 0.50;
  // A buddy pair merges when its *combined* false-invalidation count <= merge_fraction * t.
  double merge_fraction = 0.5;
  // Merging only runs when slots are actually scarce; below this utilization the directory
  // has room and merging would only recreate false invalidations on hot-but-quiet regions.
  double merge_low_water = 0.25;
  // Both buddies must have been quiet (zero false invalidations) for this many consecutive
  // epochs before merging — hysteresis against split/merge churn on bursty regions.
  uint32_t merge_quiet_epochs = 3;
};

struct BoundedSplittingStats {
  uint64_t epochs = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t split_failures = 0;  // SRAM exhausted or region at floor.
  double last_threshold = 0.0;
  double current_c = 0.0;
  uint64_t last_epoch_false_invalidations = 0;
};

class BoundedSplitting {
 public:
  BoundedSplitting(CacheDirectory* directory, BoundedSplittingConfig config)
      : directory_(directory), config_(config), c_(config.initial_c) {
    next_epoch_end_ = config_.epoch_length;
    if (fires()) {
      directory_->EnableEpochBookkeeping(config_.merge_quiet_epochs);
    }
  }

  // The controller reports allocation changes so N (base-region count) tracks the
  // allocated footprint.
  void OnAllocationChanged(uint64_t total_allocated_bytes) {
    base_region_count_ =
        (total_allocated_bytes + config_.base_region_size - 1) / config_.base_region_size;
  }

  // Called on the data-path with the current logical time; runs zero or more epoch
  // boundaries. Cheap when no boundary has passed.
  void MaybeRunEpoch(SimTime now) {
    if (!fires()) {
      return;
    }
    while (now >= next_epoch_end_) {
      RunEpoch(next_epoch_end_);
      next_epoch_end_ += config_.epoch_length;
    }
  }

  // Forces an epoch boundary (tests and benches). On a config whose boundaries never fire
  // the first call turns the directory's epoch bookkeeping on.
  void RunEpoch(SimTime now);

  // Semantic-event sink for kDirectorySplit/kDirectoryMerge (TraceScope). Epochs
  // run on serialized paths only (MaybeRunEpoch from Access/AdvanceTo), so
  // emissions land in global order; null = tracing off.
  void SetTraceSink(TraceSink* sink) { trace_ = sink; }

  [[nodiscard]] const BoundedSplittingStats& stats() const { return stats_; }
  [[nodiscard]] double current_c() const { return c_; }
  [[nodiscard]] uint64_t base_region_count() const { return base_region_count_; }
  [[nodiscard]] const BoundedSplittingConfig& config() const { return config_; }
  [[nodiscard]] SimTime next_epoch_end() const { return next_epoch_end_; }

  // Theorem 5.1: worst-case sub-regions for one M-sized region with false-invalidation
  // count f under threshold t.
  [[nodiscard]] static uint64_t TheoremBound(uint64_t f, double t, uint64_t m_pages) {
    if (t <= 0.0 || f == 0) {
      return 1;
    }
    const auto k = static_cast<uint64_t>(std::ceil(static_cast<double>(f) / t));
    if (k <= 1) {
      return 1;
    }
    const uint64_t log2_m = m_pages <= 1 ? 0 : Log2Ceil(m_pages);
    return (k - 1) * (1 + log2_m);
  }

 private:
  [[nodiscard]] bool fires() const { return config_.enabled && config_.epoch_length != 0; }
  void AdjustC();

  CacheDirectory* directory_;  // Not owned.
  BoundedSplittingConfig config_;
  double c_;
  uint64_t base_region_count_ = 0;
  SimTime next_epoch_end_ = 0;
  BoundedSplittingStats stats_;
  TraceSink* trace_ = nullptr;
};

}  // namespace mind

#endif  // MIND_SRC_CONTROLPLANE_BOUNDED_SPLITTING_H_
