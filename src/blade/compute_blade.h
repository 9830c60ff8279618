// Compute blade model (§6.1).
//
// A compute blade runs workload threads, keeps its DRAM page cache, and services coherence
// invalidations from the switch on a serial kernel path: each invalidation waits in the
// blade's handler queue, performs a synchronous TLB shootdown, flushes the region's dirty
// pages back to memory and drops the local PTEs. The queue wait and shootdown costs are the
// "Inv. (queue)" and "Inv. (TLB)" components of Fig. 7 (right).
#ifndef MIND_SRC_BLADE_COMPUTE_BLADE_H_
#define MIND_SRC_BLADE_COMPUTE_BLADE_H_

#include <cstdint>
#include <vector>

#include "src/blade/dram_cache.h"
#include "src/common/types.h"
#include "src/sim/latency_model.h"
#include "src/sim/resource.h"

namespace mind {

class ComputeBlade {
 public:
  ComputeBlade(ComputeBladeId id, uint64_t cache_frames, bool store_data,
               const LatencyModel& latency)
      : id_(id), cache_(cache_frames, store_data), latency_(latency) {}

  [[nodiscard]] ComputeBladeId id() const { return id_; }
  [[nodiscard]] DramCache& cache() { return cache_; }
  [[nodiscard]] const DramCache& cache() const { return cache_; }

  // Processes an invalidation request for region [base, end) that arrived at `arrival`.
  // Returns the flush set and the timing decomposition. The requested page (the one the
  // requesting blade asked for) is identified so false invalidations can be counted by the
  // caller: every *other* dirty page flushed here was invalidated "falsely" (§4.3.1).
  struct InvalidationOutcome {
    SimTime start = 0;          // When the handler began (>= arrival).
    SimTime done = 0;           // When flushes were posted and PTEs dropped.
    SimTime queue_wait = 0;     // Handler-queue delay.
    SimTime tlb_time = 0;       // Synchronous TLB shootdown portion.
    std::vector<DramCache::Eviction> flushed;  // Dirty pages to write back.
    uint64_t dropped_clean = 0;
  };
  InvalidationOutcome HandleInvalidation(VirtAddr base, VirtAddr end, SimTime arrival);

  // Per-blade counters.
  [[nodiscard]] uint64_t pages_flushed() const { return pages_flushed_; }
  [[nodiscard]] uint64_t tlb_shootdowns() const { return tlb_shootdowns_; }

 private:
  ComputeBladeId id_;
  DramCache cache_;
  LatencyModel latency_;
  FifoResource handler_queue_;  // Serial kernel invalidation path.
  uint64_t pages_flushed_ = 0;
  uint64_t tlb_shootdowns_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_BLADE_COMPUTE_BLADE_H_
