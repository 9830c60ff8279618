// System-independent memory-access traces.
//
// The paper captures workload accesses once (Intel PIN) and replays the identical stream
// against all compared systems (§7). Traces here are expressed against logical *segments*
// (shared heap, hot metadata, per-thread private) rather than raw VAs, so each system's own
// allocator can place them; the replay engine materializes VAs per system. This guarantees
// byte-identical access sequences across MIND, GAM and FastSwap.
#ifndef MIND_SRC_WORKLOAD_TRACE_H_
#define MIND_SRC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace mind {

// Field widths of a packed TraceOp. A trace may hold at most kMaxTraceSegments segments
// of at most kMaxSegmentPages pages each; ReplayEngine::Setup rejects any trace beyond
// those limits with kInvalidArgument before it allocates anything.
inline constexpr int kTraceSegmentBits = 16;
inline constexpr int kTracePageBits = 40;
inline constexpr uint64_t kMaxTraceSegments = 1ull << kTraceSegmentBits;
inline constexpr uint64_t kMaxSegmentPages = 1ull << kTracePageBits;

// One access, packed into 8 bytes (segment:16 | page:40 | type:8): a full-size trace
// holds tens of millions of them.
struct TraceOp {
  uint32_t segment : kTraceSegmentBits = 0;  // Index into WorkloadTraces::segments.
  uint64_t page : kTracePageBits = 0;        // Page offset within the segment.
  AccessType type : 8 = AccessType::kRead;
};
static_assert(sizeof(TraceOp) == 8, "TraceOp must pack into 8 bytes");

struct SegmentSpec {
  uint64_t pages = 0;

  [[nodiscard]] uint64_t bytes() const { return pages * kPageSize; }
};

struct ThreadTrace {
  std::vector<TraceOp> ops;
};

struct WorkloadTraces {
  std::string name;
  std::vector<SegmentSpec> segments;
  std::vector<ThreadTrace> threads;  // Global thread index; blade = index % num_blades.
  int num_blades = 1;
  SimTime think_time = 0;            // CPU work modeled between consecutive accesses.

  [[nodiscard]] uint64_t TotalOps() const {
    uint64_t n = 0;
    for (const auto& t : threads) {
      n += t.ops.size();
    }
    return n;
  }

  [[nodiscard]] uint64_t FootprintPages() const {
    uint64_t n = 0;
    for (const auto& s : segments) {
      n += s.pages;
    }
    return n;
  }
};

}  // namespace mind

#endif  // MIND_SRC_WORKLOAD_TRACE_H_
