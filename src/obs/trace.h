// TraceScope event model: typed, binary-compact events describing what happened
// inside a replay, stamped with (simulated clock, thread).
//
// Two event classes with different determinism contracts (docs/observability.md):
//
//   * SEMANTIC events describe what the simulated systems did — access
//     latency-breakdown spans, invalidation waves, directory splits/merges,
//     fault-plane timeouts/resets/stalls, blade drains and region migrations,
//     prefetch lifecycle. Every emission site sits on a serialized path
//     (Rack/GAM/FastSwap Access, the coherence drain, AdvanceTo, epoch hooks),
//     so a single control sink receives them already in exact global
//     (clock, thread) order. The semantic stream is bit-identical across
//     1/2/4/8 shards x groups on/off for a fixed seed and fault schedule; the
//     determinism tests compare its byte serialization directly.
//
//   * EXECUTION events describe how the replay engine scheduled the work —
//     channel commits, group commits, drain sub-round phases. They are emitted
//     from parallel phases into per-shard ring-buffer mailbox sinks (merged at
//     the report boundary) and legitimately vary with shard count and grouping,
//     so they are excluded from the deterministic digest but included in the
//     exported timeline.
//
// Sinks are fixed-capacity ring buffers (drop-oldest on overflow, drops
// counted) so tracing never allocates on the emission path after setup beyond
// amortized vector growth up to the cap. Each sink is single-writer under the
// phase discipline of docs/determinism.md: the control sink is written only on
// serialized paths, shard sink s only by the worker executing shard s's phase.
#ifndef MIND_SRC_OBS_TRACE_H_
#define MIND_SRC_OBS_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace mind {

enum class TraceEventKind : uint8_t {
  // --- Semantic events (serialized-path origin; in the deterministic digest) ---
  kAccessSpan = 1,        // a=va, b=breakdown.fault, c=pack32(network, fabric_wait),
                          // d=pack32(inv_queue, inv_tlb); dur=thread-visible latency.
  kInvalidationWave = 2,  // a=wave_base, b=wave_end, c=pack32(targets, flushed),
                          // d=pack32(false_invalidations, clean_drops); dur=wave span.
  kDirectorySplit = 3,    // a=region base va, b=pre-split size_log2.
  kDirectoryMerge = 4,    // a=merged base va, b=post-merge size_log2.
  kFaultTimeout = 5,      // a=attempts, b=summed retransmission delay (ns).
  kFaultReset = 6,        // a=reset va, b=pages flushed by the reset.
  kFaultStall = 7,        // a=delivery delay (ns); blade=stalled target.
  kBladeDrainBegin = 8,   // a=source memory blade, b=destination memory blade.
  kBladeDrainEnd = 9,     // a=source memory blade, b=pages migrated; dur=drain span.
  kMigrateRange = 10,     // a=chunk base va, b=pages moved; dur=chunk migration span.
  kPrefetchIssue = 11,    // a=trigger page, b=predictions issued in this batch.
  kPrefetchUseful = 12,   // a=page (arrived/in-flight prefetch served a demand miss).
  kPrefetchDiscard = 13,  // a=page, b=reason (0=stale-on-install, 1=stale-on-join).
  kWaveIssue = 14,        // a=sharer mask, b=deliveries, c=1 multicast / 0 unicast,
                          // d=issue span (first to last copy on the wire).
  // --- Execution events (engine scheduling; excluded from the digest) ---
  kChannelCommit = 15,    // a=ops committed, b=shard; clock=commit horizon.
  kGroupCommit = 16,      // a=ops committed, b=lanes; blade=group blade.
  kDrainPhase = 17,       // a=ops retired in the owner sub-round, b=H_safe.
};

// Execution events are a suffix of the kind space; everything below is semantic.
[[nodiscard]] constexpr bool IsSemanticEvent(TraceEventKind kind) {
  return static_cast<uint8_t>(kind) < static_cast<uint8_t>(TraceEventKind::kChannelCommit);
}

[[nodiscard]] const char* TraceEventKindName(TraceEventKind kind);

// Packs two (practically sub-4.29s) nanosecond quantities into one payload
// word, saturating instead of wrapping so a pathological value cannot alias.
[[nodiscard]] constexpr uint64_t TracePack32(uint64_t hi, uint64_t lo) {
  constexpr uint64_t kMax = 0xffff'ffffull;
  return ((hi > kMax ? kMax : hi) << 32) | (lo > kMax ? kMax : lo);
}

// One trace record. Fixed width, no pointers: the canonical byte serialization
// (TraceScope::SemanticBytes) is just the fields in declaration order,
// little-endian, which is what the determinism tests compare.
struct TraceEvent {
  SimTime clock = 0;  // Simulated ns: span start for duration events.
  SimTime dur = 0;    // Simulated ns duration; 0 for instant events.
  uint64_t a = 0;     // Kind-specific payload, see TraceEventKind.
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
  ThreadId tid = 0;          // 0 = no thread attribution (control-plane events).
  ComputeBladeId blade = 0;  // Requester / affected blade.
  TraceEventKind kind = TraceEventKind::kAccessSpan;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

// Fixed-capacity single-writer ring buffer of trace events. Drop-oldest on
// overflow keeps the tail of a too-long run — still deterministic, because the
// drop pattern is a pure function of the (deterministic) emission stream.
class TraceSink {
 public:
  explicit TraceSink(size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(cap_ < 1024 ? cap_ : 1024);
  }

  void Emit(const TraceEvent& e) {
    if (ring_.size() < cap_) {
      ring_.push_back(e);
    } else {
      ring_[total_ % cap_] = e;
    }
    ++total_;
  }

  [[nodiscard]] size_t size() const { return ring_.size(); }
  [[nodiscard]] uint64_t total_emitted() const { return total_; }
  [[nodiscard]] uint64_t dropped() const { return total_ - ring_.size(); }

  // Visits retained events oldest-first (unwrapping the ring).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (total_ <= cap_) {
      for (const TraceEvent& e : ring_) fn(e);
      return;
    }
    const size_t head = total_ % cap_;  // Oldest retained event.
    for (size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(head + i) % cap_]);
    }
  }

 private:
  size_t cap_;
  std::vector<TraceEvent> ring_;
  uint64_t total_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_OBS_TRACE_H_
