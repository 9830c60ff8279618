// Directory-region shard ownership for the replay engine's coherence drain (the
// home-node partitioning of the ROADMAP's region-ownership item).
//
// Every 2 MB directory region — the granularity MIND's switch directory, the channel
// run-validity stamps (DramCache::RegionOf) and the bounded-splitting floor all share —
// gets a *home compute blade*: the blade whose threads touch the region most across the
// workload's traces (ties break toward the lower blade id, so the map is a pure function
// of the traces).
//
// The replay engine uses the map as the *eligibility gate* of its owner drain
// sub-rounds: an op may retire inside a sub-round only when its region's home blade is
// the accessing thread's blade. Cross-region effects — a thread reaching into a region
// homed elsewhere, faults, invalidation waves, splits — are exactly what the gate routes
// through the serialized merge step instead. Because the gate never consults the shard
// count, the sub-round/serial composition of a drain (and with it every drain-occupancy
// counter) is bit-identical across 1/2/4/8 shards, which keeps the conformance oracle
// simple.
#ifndef MIND_SRC_WORKLOAD_REGION_OWNERSHIP_H_
#define MIND_SRC_WORKLOAD_REGION_OWNERSHIP_H_

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"

namespace mind {

class RegionOwnership {
 public:
  // 2 MB regions: the directory / channel-stamp / splitting-floor granularity.
  static constexpr uint32_t kRegionShift = 21;

  [[nodiscard]] static uint64_t RegionOf(VirtAddr va) { return va >> kRegionShift; }

  // Credits one trace op at `va` to `blade` (the accessing thread's compute blade).
  // Call once per trace op during engine setup, before Seal.
  void Credit(VirtAddr va, ComputeBladeId blade) {
    assert(!sealed_);
    std::vector<uint64_t>& counts = tallies_[RegionOf(va)];
    if (counts.size() <= blade) {
      counts.resize(static_cast<size_t>(blade) + 1, 0);
    }
    ++counts[blade];
  }

  // Fixes each credited region's home blade to the majority toucher (lowest blade id on
  // ties) and drops the tallies. The sealed map is a dense array over the credited region
  // span — segment VAs come from the allocator's contiguous heap, so the span is small
  // and HomeBlade (called once per classified op on the drain's hot path) is an index,
  // not a hash probe. Idempotent queries only after this.
  void Seal() {
    if (!tallies_.empty()) {
      base_region_ = UINT64_MAX;
      uint64_t last = 0;
      // detlint: allow(unordered-iteration): min/max reduce; order-invariant.
      for (const auto& [region, counts] : tallies_) {
        base_region_ = region < base_region_ ? region : base_region_;
        last = region > last ? region : last;
      }
      home_.assign(last - base_region_ + 1, -1);
      // detlint: allow(unordered-iteration): each iteration writes only its own keyed
      // slot of home_; the visit order cannot leak into the sealed map.
      for (const auto& [region, counts] : tallies_) {
        uint64_t best_count = 0;
        int16_t best_blade = 0;
        for (size_t b = 0; b < counts.size(); ++b) {
          if (counts[b] > best_count) {
            best_count = counts[b];
            best_blade = static_cast<int16_t>(b);
          }
        }
        home_[region - base_region_] = best_blade;
        ++credited_;
      }
    }
    tallies_.clear();
    sealed_ = true;
  }

  [[nodiscard]] bool sealed() const { return sealed_; }
  [[nodiscard]] size_t num_regions() const { return credited_; }

  // Home compute blade of the region containing `va`; -1 for a region no trace op was
  // credited to (callers treat unknown regions as foreign, i.e. serialized).
  [[nodiscard]] int HomeBlade(VirtAddr va) const {
    const uint64_t idx = RegionOf(va) - base_region_;
    return idx < home_.size() ? home_[idx] : -1;
  }

  // True when the accessor's blade is the region's home — the shard-count-invariant
  // eligibility gate of the owner drain.
  [[nodiscard]] bool OwnedByAccessor(VirtAddr va, ComputeBladeId accessor_blade) const {
    return HomeBlade(va) == static_cast<int>(accessor_blade);
  }

 private:
  std::unordered_map<uint64_t, std::vector<uint64_t>> tallies_;  // region -> per-blade hits.
  uint64_t base_region_ = 0;   // First credited region (dense-array offset).
  std::vector<int16_t> home_;  // region - base_region_ -> home blade, -1 uncredited.
  size_t credited_ = 0;
  bool sealed_ = false;
};

}  // namespace mind

#endif  // MIND_SRC_WORKLOAD_REGION_OWNERSHIP_H_
