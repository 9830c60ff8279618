// Common replay interface over the three compared systems (§7, "Compared systems").
//
// The paper captures each workload's memory accesses once (with Intel PIN) and replays the
// *identical* access stream against MIND, GAM and FastSwap through a memory-access emulator.
// MemorySystem is that emulator's system-side interface: allocate segments, register worker
// threads on blades, and issue timed accesses.
//
// The data-plane boundary is batch-first: besides the per-op Access (the serialized
// reference path every system must implement), a system can hand out AccessChannel objects
// (src/core/access_channel.h) — per-(thread, blade) batched submit/complete channels the
// replay engine drives ahead of global order, one shard per blade group. All three
// in-tree systems implement channels; the default opt-out (OpenChannel returning null)
// routes every op through the serialized drain, which is always correct, at per-op speed.
#ifndef MIND_SRC_BASELINES_MEMORY_SYSTEM_H_
#define MIND_SRC_BASELINES_MEMORY_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/core/access.h"
#include "src/core/access_channel.h"
#include "src/fault/fault_plane.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/prefetch/prefetch.h"

namespace mind {

// Counters every compared system reports; MIND additionally exposes RackStats.
struct SystemCounters {
  uint64_t total_accesses = 0;
  uint64_t local_hits = 0;
  uint64_t remote_accesses = 0;
  uint64_t invalidations = 0;
  uint64_t pages_flushed = 0;
  uint64_t false_invalidations = 0;
  LatencyBreakdown breakdown_sums;

  // Accumulates another counter block (per-shard replay counters fold into one report
  // without double-counting: each access is accounted by exactly one shard or by the
  // system itself, never both).
  void Merge(const SystemCounters& o) {
    total_accesses += o.total_accesses;
    local_hits += o.local_hits;
    remote_accesses += o.remote_accesses;
    invalidations += o.invalidations;
    pages_flushed += o.pages_flushed;
    false_invalidations += o.false_invalidations;
    breakdown_sums += o.breakdown_sums;
  }

  // Field-wise delta over a run (counters are monotonic).
  [[nodiscard]] SystemCounters DeltaSince(const SystemCounters& before) const {
    SystemCounters d;
    d.total_accesses = total_accesses - before.total_accesses;
    d.local_hits = local_hits - before.local_hits;
    d.remote_accesses = remote_accesses - before.remote_accesses;
    d.invalidations = invalidations - before.invalidations;
    d.pages_flushed = pages_flushed - before.pages_flushed;
    d.false_invalidations = false_invalidations - before.false_invalidations;
    d.breakdown_sums = breakdown_sums - before.breakdown_sums;
    return d;
  }
};

// Ownership-aware drain contract backing the replay engine's owner drain sub-rounds
// (src/workload/region_ownership.h has the region->owner map itself).
//
// The engine partitions each serialized drain into sub-rounds: it classifies every
// unfinished thread's next op through Eligible, derives a safety horizon H_safe from the
// classification (min over threads of `clock` for ineligible tops and `clock +
// MinEligibleCost + think` for eligible ones), and retires every eligible op with a start
// clock strictly below H_safe through Access, in global (clock, thread) order, without
// re-scanning between them. Everything else (faults, invalidation waves, splits,
// epoch/sampler boundaries, regions homed at another blade) falls through to a merge step
// that executes the exact global (clock, thread) minimum via Access.
//
// The contract every implementation must honor:
//   * Eligible is non-mutating. It must accept only ops whose entire execution touches
//     state confined to the accessing blade plus the accessing thread — in-tree that
//     means local cache hits with prefetching off (hits never evict, never draw
//     fault-plane randomness, and never touch the fabric or any directory), under a
//     consistency model whose read barrier is thread-confined. Retiring such an op
//     leaves every other thread's verdict exact, so the engine re-classifies only the
//     retiring thread.
//   * MinEligibleCost lower-bounds the thread-visible latency of ANY eligible op: the
//     engine's H_safe lookahead is sound exactly because an op retired inside a sub-round
//     advances its thread's clock by at least this much.
//   * NextSerialBoundary is the earliest time-driven global event (e.g. a bounded-
//     splitting epoch boundary) that Access would run implicitly; ops at or past it are
//     never eligible, so the event fires on a merge step exactly as under serial replay.
//     Scheduled fault-plane events are clamped by the engine itself via
//     NextScheduledFaultAt.
//   * AccessOwned and Fold are never called: sub-rounds retire through Access. They stay
//     declared so that existing decorators which forward them keep compiling.
class OwnerDrainOps {
 public:
  virtual ~OwnerDrainOps() = default;

  // Phase tags (docs/determinism.md): Eligible is tagged for the stricter context;
  // MinEligibleCost and NextSerialBoundary run on the serialized drain. Every override
  // must restate its tag (tools/detlint.py enforces contract totality).
  MIND_PARALLEL_PHASE [[nodiscard]] virtual bool Eligible(ThreadId tid, ComputeBladeId blade,
                                                          VirtAddr va, AccessType type,
                                                          SimTime now) const = 0;
  MIND_SERIALIZED_PATH [[nodiscard]] virtual SimTime MinEligibleCost() const = 0;
  MIND_SERIALIZED_PATH [[nodiscard]] virtual SimTime NextSerialBoundary() const {
    return FaultPlane::kNever;
  }
  // Never called (see above); returns kUnavailable.
  MIND_PARALLEL_PHASE virtual AccessResult AccessOwned(int /*shard*/, ThreadId /*tid*/,
                                                       ComputeBladeId /*blade*/,
                                                       VirtAddr /*va*/,
                                                       AccessType /*type*/,
                                                       SimTime /*now*/) {
    AccessResult r;
    r.status =
        Status(ErrorCode::kUnavailable, "OwnerDrainOps::AccessOwned is never called");
    return r;
  }
  // Never called (see above).
  MIND_SERIALIZED_PATH virtual void Fold() {}
};

class MemorySystem {
 public:
  virtual ~MemorySystem() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int num_compute_blades() const = 0;

  // Allocates a segment of the workload's address space (setup phase; not timed).
  virtual Result<VirtAddr> Alloc(uint64_t size) = 0;

  // Registers a worker thread pinned to `blade`. Systems without multi-blade support
  // (FastSwap) reject blades other than 0.
  virtual Result<ThreadId> RegisterThread(ComputeBladeId blade) = 0;

  // One timed memory access from `tid` (running on `blade`) at logical time `now`. This is
  // the serialized reference path: the replay drain executes every op a channel refuses
  // (faults, coherence transitions, control-plane epochs) through it in exact global
  // (clock, thread) order.
  MIND_SERIALIZED_PATH virtual AccessResult Access(ThreadId tid, ComputeBladeId blade,
                                                   VirtAddr va, AccessType type,
                                                   SimTime now) = 0;

  [[nodiscard]] virtual SystemCounters counters() const = 0;

  // Fault-plane accounting (src/fault/fault_plane.h): timeouts, retransmissions, resets,
  // drains. All-zero for systems without fault injection (the interface default).
  [[nodiscard]] virtual FaultCounters fault_counters() const { return {}; }

  // Earliest scheduled-but-unexecuted fault event (FaultPlane::kNever when none). The
  // replay engine clamps its commit horizon here: a scheduled event (e.g. a blade drain)
  // mutates caches at its chosen clock, so channel hits at or past that clock must not
  // commit before the event runs on the serialized path.
  [[nodiscard]] virtual SimTime NextScheduledFaultAt() const { return FaultPlane::kNever; }

  // --- Batched data-plane channels ---
  //
  // Opens the submit/complete channel for one registered (thread, blade) pair; see
  // src/core/access_channel.h for the full classify/commit contract, including the
  // per-2MB-region validity stamps and the phase discipline under which channel calls run
  // ahead of global order. Returning null opts the system out: the engine
  // then drives every op of that thread through Access on the serialized drain, which is
  // always correct (and is also the engine's reference mode for conformance testing).
  virtual std::unique_ptr<AccessChannel> OpenChannel(ThreadId /*tid*/,
                                                     ComputeBladeId /*blade*/) {
    return nullptr;
  }

  // Opens the per-blade channel group over this system's channels (ChannelGroup contract
  // in src/core/access_channel.h): when >= 2 replay threads share a blade, the engine
  // registers their channels as members, validates all their submitted runs in one pass
  // per blade, and commits the merged (clock, thread) stream as one batch per round.
  // Returning null opts the system out; the engine then falls back to per-thread channel
  // commits, which are always correct (and remain the conformance baseline alongside the
  // per-op reference path).
  virtual std::unique_ptr<ChannelGroup> OpenChannelGroup(ComputeBladeId /*blade*/) {
    return nullptr;
  }

  // Advances time-driven control-plane work (e.g. bounded-splitting epochs) to `now`
  // without performing an access. The replay engine calls this once after the final op so
  // trailing epoch boundaries run exactly as they would under serial replay.
  MIND_SERIALIZED_PATH virtual void AdvanceTo(SimTime /*now*/) {}

  // --- Ownership-aware coherence drains (src/workload/region_ownership.h) ---
  //
  // Opens the ownership-aware drain contract (OwnerDrainOps above); `num_shards` is
  // informational. Returning null opts the system out: every drained op then takes the
  // merge step, which is always correct.
  virtual std::unique_ptr<OwnerDrainOps> OpenOwnerDrain(int /*num_shards*/) {
    return nullptr;
  }

  // --- Pattern-aware prefetching (src/prefetch/prefetch.h) ---
  //
  // Selects the prefetch policy for subsequent accesses (call before replay starts; the
  // default kNone keeps every system bit-identical to its non-prefetching behavior).
  // Returns false when the system has no prefetch support (the interface default).
  virtual bool SetPrefetchPolicy(PrefetchPolicy /*policy*/) { return false; }

  // Aggregated prefetch accounting across the system's engines. Non-const: systems may
  // lazily classify still-installed-but-evicted pages while aggregating.
  virtual PrefetchStats prefetch_stats() { return {}; }

  // --- Observability (src/obs/, docs/observability.md) ---
  //
  // Installs (or with nullptr, removes) the semantic-event trace sink. Systems
  // emit only from serialized paths, so the sink sees events in exact global
  // (clock, thread) order; with no sink installed the hooks are a null-pointer
  // branch off the hot path. Returns false when the system does not emit
  // events (the interface default).
  virtual bool SetTraceSink(TraceSink* /*sink*/) { return false; }

  // Publishes the system's counter blocks into `reg` under "<prefix>/...".
  // The default covers the interface-level blocks; systems with extra state
  // (MIND's RackStats, bounded-splitting stats) extend it. Serialized-path
  // only: the replay engine calls this at epoch boundaries and end of run.
  virtual void CollectMetrics(MetricsRegistry* reg, const std::string& prefix) {
    const SystemCounters c = counters();
    reg->SetCounter(prefix + "/counters/total_accesses", c.total_accesses);
    reg->SetCounter(prefix + "/counters/local_hits", c.local_hits);
    reg->SetCounter(prefix + "/counters/remote_accesses", c.remote_accesses);
    reg->SetCounter(prefix + "/counters/invalidations", c.invalidations);
    reg->SetCounter(prefix + "/counters/pages_flushed", c.pages_flushed);
    reg->SetCounter(prefix + "/counters/false_invalidations", c.false_invalidations);
    reg->SetCounter(prefix + "/breakdown/fault_ns", c.breakdown_sums.fault);
    reg->SetCounter(prefix + "/breakdown/network_ns", c.breakdown_sums.network);
    reg->SetCounter(prefix + "/breakdown/inv_queue_ns", c.breakdown_sums.inv_queue);
    reg->SetCounter(prefix + "/breakdown/inv_tlb_ns", c.breakdown_sums.inv_tlb);
    reg->SetCounter(prefix + "/breakdown/fabric_wait_ns", c.breakdown_sums.fabric_wait);
    const FaultCounters f = fault_counters();
    reg->SetCounter(prefix + "/fault/timeouts", f.timeouts);
    reg->SetCounter(prefix + "/fault/retransmissions", f.retransmissions);
    reg->SetCounter(prefix + "/fault/resets_triggered", f.resets_triggered);
    reg->SetCounter(prefix + "/fault/pages_flushed_by_reset", f.pages_flushed_by_reset);
    reg->SetCounter(prefix + "/fault/drains_completed", f.drains_completed);
    reg->SetCounter(prefix + "/fault/drain_pages_migrated", f.drain_pages_migrated);
    reg->SetCounter(prefix + "/fault/stalled_deliveries", f.stalled_deliveries);
  }
};

}  // namespace mind

#endif  // MIND_SRC_BASELINES_MEMORY_SYSTEM_H_
