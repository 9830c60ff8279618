// Access-request/result types for the MIND data path.
#ifndef MIND_SRC_CORE_ACCESS_H_
#define MIND_SRC_CORE_ACCESS_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/common/types.h"

namespace mind {

struct AccessRequest {
  ThreadId tid = 0;
  ComputeBladeId blade = 0;
  ProtDomainId pdid = 0;
  VirtAddr va = 0;
  AccessType type = AccessType::kRead;
  SimTime now = 0;
};

// Width of LocalOp::va. The allocators hand out VAs below 2^47, well inside it.
inline constexpr int kLocalOpVaBits = 56;

// Compact per-op input for the batched blade-local fast path (channel replay), packed
// into 8 bytes (va:56 | type:8): the resolved VA and the access type; everything else is
// per-run.
struct LocalOp {
  VirtAddr va : kLocalOpVaBits = 0;
  AccessType type : 8 = AccessType::kRead;
};
static_assert(sizeof(LocalOp) == 8, "LocalOp must pack into 8 bytes");

// The additive latency decomposition of Fig. 7 (right): PgFault covers trap entry and PTE
// install; Network covers hops, switch pipeline passes, serialization, memory service and
// directory serialization; Inv-queue and Inv-TLB cover the slowest sharer's handler-queue
// wait and synchronous TLB shootdown on the invalidation critical path; Fabric-wait
// covers port/stage queueing on the requester's own hops (the contention component the
// queue models add — zero on an idle rack, where Network is pure wire + service time).
struct LatencyBreakdown {
  SimTime fault = 0;
  SimTime network = 0;
  SimTime inv_queue = 0;
  SimTime inv_tlb = 0;
  SimTime fabric_wait = 0;

  [[nodiscard]] SimTime Total() const {
    return fault + network + inv_queue + inv_tlb + fabric_wait;
  }

  LatencyBreakdown& operator+=(const LatencyBreakdown& o) {
    fault += o.fault;
    network += o.network;
    inv_queue += o.inv_queue;
    inv_tlb += o.inv_tlb;
    fabric_wait += o.fabric_wait;
    return *this;
  }

  // Field-wise delta between two monotonic breakdown sums (counter deltas over a run).
  // Keeping subtraction next to the fields means a future component cannot be silently
  // missed by a hand-rolled copy elsewhere.
  [[nodiscard]] LatencyBreakdown operator-(const LatencyBreakdown& o) const {
    LatencyBreakdown d;
    d.fault = fault - o.fault;
    d.network = network - o.network;
    d.inv_queue = inv_queue - o.inv_queue;
    d.inv_tlb = inv_tlb - o.inv_tlb;
    d.fabric_wait = fabric_wait - o.fabric_wait;
    return d;
  }
};

struct AccessResult {
  Status status;
  SimTime latency = 0;     // Thread-visible latency (PSO writes return before completion).
  SimTime completion = 0;  // Absolute time the coherence transition fully finished.
  bool local_hit = false;
  bool triggered_invalidation = false;
  MsiState prev_state = MsiState::kInvalid;  // Directory state before the access.
  MsiState next_state = MsiState::kInvalid;
  LatencyBreakdown breakdown;
};

}  // namespace mind

#endif  // MIND_SRC_CORE_ACCESS_H_
