// The MIND rack: public API tying the switch data plane, control plane, compute blades and
// memory blades together (Fig. 2).
//
// A Rack hosts the full in-network memory management unit: address translation, protection
// and the MSI cache directory execute "on the switch ASIC" in the access path; allocation,
// permission assignment and bounded splitting run at the control plane; compute blades keep
// page caches and service invalidations; memory blades passively serve one-sided RDMA.
//
// The data path is driven by logical time: callers supply the access timestamp and receive
// the thread-visible latency plus the absolute completion time, which lets the trace-replay
// engine model a whole rack of concurrent threads deterministically.
#ifndef MIND_SRC_CORE_RACK_H_
#define MIND_SRC_CORE_RACK_H_

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/blade/compute_blade.h"
#include "src/blade/memory_blade.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/controlplane/bounded_splitting.h"
#include "src/controlplane/controller.h"
#include "src/core/access.h"
#include "src/core/access_channel.h"
#include "src/core/config.h"
#include "src/core/rack_stats.h"
#include "src/dataplane/directory.h"
#include "src/dataplane/protection.h"
#include "src/dataplane/stt.h"
#include "src/dataplane/tcam.h"
#include "src/dataplane/translation.h"
#include "src/fault/fault_plane.h"
#include "src/net/fabric.h"
#include "src/obs/trace.h"

namespace mind {

class Rack {
 public:
  explicit Rack(RackConfig config);

  // --- Control-plane surface (syscall intercepts, §6.1) ---

  Result<ProcessId> Exec(const std::string& name) { return controller_.Exec(name); }
  Status Exit(ProcessId pid) { return controller_.Exit(pid); }
  Result<ProcessManager::ThreadPlacement> SpawnThread(
      ProcessId pid, ComputeBladeId pinned = kInvalidComputeBlade) {
    return controller_.SpawnThread(pid, pinned);
  }
  Result<VirtAddr> Mmap(ProcessId pid, uint64_t size, PermClass perm) {
    return controller_.Mmap(pid, size, perm);
  }
  // munmap also tears down coherence state for the vma (flushing nothing — data is gone).
  Status Munmap(ProcessId pid, VirtAddr base);
  // Permission changes shoot down cached pages in the range at every blade (with dirty
  // write-back), so stale PTEs can never bypass the switch's protection check.
  Status Mprotect(ProcessId pid, VirtAddr base, uint64_t size, PermClass perm);
  Status GrantToDomain(ProcessId owner, ProtDomainId grantee, VirtAddr base, uint64_t size,
                       PermClass perm) {
    return controller_.GrantToDomain(owner, grantee, base, size, perm);
  }
  Status RevokeFromDomain(ProtDomainId grantee, VirtAddr base, uint64_t size);

  // --- Data path ---

  // Serialized reference path (docs/determinism.md): may draw fault-plane randomness and
  // mutates RackStats directly, so it must never run inside a parallel phase.
  MIND_SERIALIZED_PATH AccessResult Access(const AccessRequest& req);

  // --- Batched data-plane channel (AccessChannel contract, src/core/access_channel.h) ---
  //
  // Opens the per-(thread, blade) submit/complete channel over the blade-local hit path.
  // Submit classifies a run as pure blade-local hits without mutating anything: the
  // accepted prefix is exactly the ops for which Access would return at step 0/1 (local
  // DRAM hit), with exact per-op latencies, tagged-frame-pointer commit tokens and the end
  // clock. It only reads the blade's cache index, the protection table and the channel
  // thread's PSO pending-write list. The blade's group commit applies those hits' side
  // effects — LRU recency and dirty bits — touching only the blade's own cache. The
  // pipeline memo and PSO pruning are deliberately skipped: both are pure memoization
  // whose absence never changes an access outcome, so channel-driven and serial replay
  // stay bit-identical. Run validity is stamped per 2 MB cache region (plus the
  // protection-table version), so an invalidation wave over a shared region leaves runs
  // over private regions of the same blade valid.
  std::unique_ptr<AccessChannel> OpenChannel(ThreadId tid, ComputeBladeId blade,
                                             ProtDomainId pdid);

  // Opens the per-blade channel group over the rack's channels (ChannelGroup contract in
  // src/core/access_channel.h): one protection-version + region-stamp validation pass per
  // blade covers every member's submitted run, and the merged (clock, thread) stream of
  // the blade's threads commits as one batch — under TSO a single uniform-latency batch
  // accounted across threads with Histogram::RecordN.
  std::unique_ptr<ChannelGroup> OpenChannelGroup(ComputeBladeId blade);

  // Runs any bounded-splitting epoch boundaries at or before `now` (the data path does
  // this implicitly on every Access; channel replay calls it for boundaries that fall
  // after the last serialized access).
  void AdvanceSplittingEpochs(SimTime now) { splitting_.MaybeRunEpoch(now); }

  // Advances every time-driven control-plane activity to `now` without an access:
  // splitting epochs, scheduled fault-plane drains, and — when prefetching is on — each
  // blade's pending prefetch installs and re-armed windows (a fully covered stream's next
  // window issues here even though the blade never takes another serialized access). The
  // replay engine calls this once after the final op in every mode, so everything that
  // runs here is mode-invariant.
  MIND_SERIALIZED_PATH void AdvanceTo(SimTime now);

  // --- Pattern-aware prefetching (src/prefetch/prefetch.h) ---
  //
  // Per-(thread, blade) engines watch the fault stream and speculatively fetch ahead of
  // it. Prefetched pages install Shared through the ordinary directory state machine
  // (join-sharers transitions only — a prefetch never triggers an invalidation wave or
  // takes E/M), and an in-flight fetch whose 2 MB region is hit by an invalidation wave
  // before arrival is discarded via DramCache::region_inval_version. With the default
  // kNone policy nothing here runs and the data path is bit-identical to pre-prefetch.
  void SetPrefetchPolicy(PrefetchPolicy policy) { config_.prefetch.policy = policy; }
  [[nodiscard]] PrefetchStats prefetch_stats();

  // Resolves the thread's blade and protection domain, then runs Access.
  AccessResult AccessByThread(ThreadId tid, VirtAddr va, AccessType type, SimTime now);

  // Byte-granular reads/writes for examples and end-to-end tests (requires store_data).
  // They fault pages in via Access and then move real bytes. Returns the completion time.
  Result<SimTime> WriteBytes(ThreadId tid, VirtAddr va, const void* src, uint64_t len,
                             SimTime now);
  Result<SimTime> ReadBytes(ThreadId tid, VirtAddr va, void* dst, uint64_t len, SimTime now);

  // Page migration (§4.1, "Transparency via outlier entries"): moves the aligned range
  // [base, base + 2^size_log2) to `dst` memory blade — copies the pages, installs an
  // outlier translation (LPM overrides the blade range), and shoots down cached copies so
  // subsequent faults fetch from the new home. Returns the completion time.
  Result<SimTime> MigrateRange(VirtAddr base, uint32_t size_log2, MemoryBladeId dst,
                               SimTime now);

  // --- Failure handling (§4.4) ---

  // Reset for a VA: forces all blades to drop/flush the containing region and removes its
  // directory entry, breaking any wedged transition.
  Status ResetAddress(VirtAddr va, SimTime now);

  // Graceful memory-blade drain/failover: marks `src` draining (no new allocations land
  // on it), migrates every vma chunk homed on it to `dst` via the migration machinery
  // (shoot-down, page copies, outlier translation retarget), and records the drain in the
  // fault counters. After it returns, `src` serves no translated range and can be
  // removed. Returns the completion time.
  Result<SimTime> DrainMemoryBlade(MemoryBladeId src, MemoryBladeId dst, SimTime now);

  // Earliest scheduled-but-unexecuted fault event (FaultPlane::kNever when none). The
  // replay engine clamps its commit horizon here so channel hits never commit past a
  // cache-mutating scheduled event — in serial per-op replay the event runs before them
  // and may turn them into misses.
  [[nodiscard]] SimTime NextScheduledFaultAt() const { return fault_plane_.NextDrainAt(); }

  // --- Observability (src/obs/, docs/observability.md) ---
  //
  // Installs the semantic-event sink on the rack and its fault plane + splitting
  // controller. Every emission site sits on the serialized path (the Access miss
  // path, drains, epochs, resets); with a null sink each hook is one pointer
  // compare, and nothing at all is added before the TryLocalHit fast exit.
  void SetTraceSink(TraceSink* sink) {
    trace_ = sink;
    fault_plane_.SetTraceSink(sink);
    splitting_.SetTraceSink(sink);
  }

  // --- Introspection (benches & tests) ---

  [[nodiscard]] const RackConfig& config() const { return config_; }
  [[nodiscard]] const RackStats& stats() const { return stats_; }
  [[nodiscard]] CacheDirectory& directory() { return directory_; }
  [[nodiscard]] Controller& controller() { return controller_; }
  [[nodiscard]] BoundedSplitting& bounded_splitting() { return splitting_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] const Fabric& fabric() const { return fabric_; }
  [[nodiscard]] const AddressTranslator& translator() const { return translator_; }
  [[nodiscard]] const ProtectionTable& protection() const { return protection_; }
  [[nodiscard]] const StateTransitionTable& stt() const { return stt_; }
  [[nodiscard]] ComputeBlade& compute_blade(ComputeBladeId id) { return *compute_blades_[id]; }
  [[nodiscard]] MemoryBlade& memory_blade(MemoryBladeId id) { return *memory_blades_[id]; }
  [[nodiscard]] TcamCapacity& tcam_capacity() { return tcam_capacity_; }
  [[nodiscard]] FaultPlane& fault_plane() { return fault_plane_; }
  [[nodiscard]] const FaultPlane& fault_plane() const { return fault_plane_; }

  // Total match-action rules in use: translation + protection + the materialized STT.
  [[nodiscard]] uint64_t MatchActionRules() const {
    return translator_.rule_count() + protection_.rule_count() + stt_.rule_count();
  }

 private:
  // AccessChannel implementation over the blade-local hit path (defined in rack.cc).
  class Channel;
  // Per-blade ChannelGroup over those channels (defined in rack.cc).
  class Group;

  // Result of delivering one invalidation wave to a set of blades.
  struct InvalidationWave {
    SimTime max_ack_at_requester = 0;  // Slowest ACK as seen by the requesting blade.
    SimTime flush_landed = 0;          // When the last flushed page reached memory.
    SimTime max_queue_wait = 0;
    SimTime max_tlb = 0;
    uint64_t flushed = 0;
    uint64_t false_invalidations = 0;
    uint64_t clean_drops = 0;
  };

  // Invalidates `targets` for the entry's region on behalf of `requester` (which asked for
  // `requested_page`; pass UINT64_MAX for forced/capacity invalidations with no requested
  // page). Performs flush write-backs to memory blades and routes ACKs to the requester.
  InvalidationWave InvalidateBlades(SharerMask targets, const DirectoryEntry& entry,
                                    uint64_t requested_page, ComputeBladeId requester,
                                    SimTime t);

  // Finds or lazily creates the directory entry covering `va`, evicting under capacity
  // pressure. Advances `t` by any control-plane work performed. Null on kFault (no vma).
  DirectoryEntry* EnsureDirectoryEntry(VirtAddr va, SimTime& t, Status* error);

  // Fetches the page containing `va` from its memory blade towards `requester`. Returns the
  // data-arrival time; `bytes` receives the page payload when data storage is on.
  // `fabric_wait` (optional) accumulates the fetch's port/stage queueing delay.
  SimTime FetchPageFromMemory(VirtAddr va, ComputeBladeId requester, SimTime start,
                              const PageData** bytes, SimTime* fabric_wait = nullptr);

  // Writes one page back to its memory blade (flush or eviction), returning landing time.
  SimTime WriteBackPage(ComputeBladeId from, uint64_t page, const PageData* data,
                        SimTime start);

  // Current backing bytes of the page containing `va` (store_data mode only; null
  // otherwise, or when the va is no longer translated). Prefetch installs re-read the
  // memory blade here instead of holding payload pointers across in-flight time.
  [[nodiscard]] const PageData* PeekPageBytes(VirtAddr va);

  // Inserts a fetched page into the requester's cache, handling dirty LRU eviction.
  // `prefetched` installs speculatively: marked Frame::prefetched and linked at the
  // blade's adaptive cold LRU depth instead of MRU (prefetch-aware eviction priority).
  void InsertIntoCache(ComputeBladeId blade, uint64_t page, bool writable,
                       const PageData* bytes, SimTime now, ProtDomainId pdid = 0,
                       bool prefetched = false);

  // Drops cached pages of [base, base+size) at every compute blade, writing dirty pages
  // back to memory first. Used on permission changes and teardown.
  void ShootDownRange(VirtAddr base, uint64_t size, bool write_back);

  // Executes any scheduled fault-plane drain due at or before `now`, at its *scheduled*
  // clock (never `now`), so fabric interleaving is identical across replay modes. Called
  // at the top of every Access and from AdvanceTo; the common case is one compare inside
  // FaultPlane::TakeDueDrain.
  void MaybeRunScheduledDrains(SimTime now) {
    while (const FaultPlaneConfig::BladeDrain* d = fault_plane_.TakeDueDrain(now)) {
      (void)DrainMemoryBlade(d->blade, d->dst, d->at);
    }
  }

  // PSO support: pending-store tracking per thread.
  struct PendingWrite {
    VirtAddr begin = 0;
    VirtAddr end = 0;
    SimTime completion = 0;
  };
  SimTime PsoReadBarrier(ThreadId tid, VirtAddr va, SimTime now);
  void PsoRecordWrite(ThreadId tid, VirtAddr va, SimTime completion);
  // Read-only flavor for PeekLocalHit: same barrier value, no pruning (pruning only drops
  // entries whose completion can never raise a later barrier, so skipping it is invisible).
  [[nodiscard]] SimTime PsoPeekBarrier(ThreadId tid, VirtAddr va, SimTime now) const;

  // --- Prefetch internals (serialized drain only; see SetPrefetchPolicy above) ---

  // Lazily creates the (thread, blade) engine on the thread's first demand fault.
  PrefetchEngine& EnsurePrefetchEngine(ThreadId tid);
  // Installs arrived in-flight prefetches for `blade` (discarding stale ones) — runs at
  // the top of every Access so a covered fault becomes a plain local hit.
  void InstallReadyPrefetches(ComputeBladeId blade, SimTime now);
  // Records the fault, predicts ahead and issues speculative fetches starting at the
  // demand access's completion time `done`.
  void PrefetchAfterFault(const AccessRequest& req, uint64_t page, SimTime done);
  // The issue half of PrefetchAfterFault, also driven by re-arm requests (a useful touch
  // past the issued window's midpoint, possibly observed by a channel/group commit):
  // predicts from `page` and issues `engine`'s next window starting at `start`.
  void IssuePrefetches(PrefetchEngine& engine, ComputeBladeId blade_id, ProtDomainId pdid,
                       uint64_t page, SimTime start);
  // The prefetch slice of the miss path, out of line to keep Access's hit path tight:
  // installs arrived pages (retrying the hit), joins in-flight fetches (late) and
  // classifies prefetched write-upgrades. True when the access was fully serviced.
  bool ServiceViaPrefetch(const AccessRequest& req, SimTime now, uint64_t page,
                          DramCache::Frame** frame, bool* pslot_valid, AccessResult* res);

  // The blade-local hit path of Access (steps 0/1): pipeline-memo short-circuit, then the
  // MMU/DRAM-cache probe with domain re-validation. `now` is the post-PSO-barrier time.
  // Mutates LRU recency (also when a present frame fails the hit checks, matching the
  // historical Lookup-then-fall-through behavior) and primes the pipeline memo on
  // success. Does NOT touch stats. On failure, `*frame_out` / `*pslot_valid_out` return
  // the probed frame and memo validity so the fault path does not redo either.
  bool TryLocalHit(const AccessRequest& req, SimTime now, AccessResult* res,
                   DramCache::Frame** frame_out, bool* pslot_valid_out);

  // --- Fused pipeline cache (the ASIC's single-pass match-action traversal) ---
  //
  // Per-thread memo of {protection verdict, cached frame, directory entry} for the last
  // page the thread touched. A slot is valid only while the generation it snapshotted
  // still equals PipelineGeneration(), which is the sum of monotonic mutation counters of
  // every structure the verdict depends on: the directory (create/remove/split/merge and
  // capacity evictions), the protection table (mmap/mprotect/grant/revoke/munmap), the
  // translator (blade ranges, migration outliers) and `cache_epoch_` (bumped whenever any
  // blade's DRAM cache drops or evicts frames: invalidation waves, shoot-downs, LRU
  // evictions). Any control-plane mutation, invalidation wave, split/merge or migration
  // therefore invalidates every slot at once — stale translations, permissions, directory
  // pointers and frame pointers can never be replayed.
  static constexpr uint32_t kPipelineSlots = 256;  // Power of two; direct-mapped by tid.
  struct PipelineSlot {
    uint64_t generation = UINT64_MAX;
    uint64_t page = UINT64_MAX;
    ThreadId tid = 0;
    ComputeBladeId blade = kInvalidComputeBlade;
    ProtDomainId pdid = 0;
    bool read_ok = false;   // Protection verdict known-allowed for reads.
    bool write_ok = false;  // Protection verdict known-allowed for writes.
    DramCache::Frame* frame = nullptr;
    DirectoryEntry* dir_entry = nullptr;
  };
  [[nodiscard]] uint64_t PipelineGeneration() const {
    return directory_.version() + protection_.version() + translator_.version() +
           cache_epoch_;
  }
  void PopulatePipeline(const AccessRequest& req, uint64_t page, DramCache::Frame* frame,
                        DirectoryEntry* dir_entry);

  // Direct-mapped translation memo (the switch's translation MAU result for a page),
  // validated against the translator's mutation counter.
  struct TranslationSlot {
    uint64_t page = UINT64_MAX;
    uint64_t version = UINT64_MAX;
    Translation tr;
  };
  // Translates the page containing `va` through the memo; false on kFault.
  bool TranslatePage(VirtAddr va, Translation* out);

  RackConfig config_;

  // Data plane.
  TcamCapacity tcam_capacity_;
  AddressTranslator translator_;
  ProtectionTable protection_;
  CacheDirectory directory_;
  StateTransitionTable stt_;

  // Control plane.
  BoundedSplitting splitting_;
  Controller controller_;

  // Fabric + blades. The fabric owns the rack's single LatencyModel; lat_ is a view of it
  // for the many call sites that only need constants.
  Fabric fabric_;
  const LatencyModel& lat_;
  FaultPlane fault_plane_;
  std::vector<std::unique_ptr<ComputeBlade>> compute_blades_;
  std::vector<std::unique_ptr<MemoryBlade>> memory_blades_;

  RackStats stats_;
  // Semantic trace sink (null = tracing off). Written to only from serialized
  // paths, like stats_; see SetTraceSink above.
  TraceSink* trace_ = nullptr;
  std::unordered_map<ThreadId, std::vector<PendingWrite>> pending_writes_;
  std::array<PipelineSlot, kPipelineSlots> pipeline_{};
  std::array<TranslationSlot, kPipelineSlots> translation_cache_{};
  // Bumped whenever frames leave any blade's DRAM cache (see PipelineGeneration above).
  uint64_t cache_epoch_ = 0;
  // Physical arena on destination blades for migrated ranges; grows monotonically. A full
  // implementation would reuse the balanced allocator; a bump cursor suffices for the
  // migration feature and keeps PAs disjoint from the identity-mapped partitions.
  PhysAddr migration_cursor_ = 1ull << 44;
  // Prefetch state: per-thread engines plus per-blade in-flight/unused tables (mutated on
  // the serialized drain; channel commits touch only their own blade's entry). Kept after
  // the hot pipeline/translation memo arrays so their cache placement is unchanged.
  std::unordered_map<ThreadId, std::unique_ptr<PrefetchEngine>> prefetch_engines_;
  std::vector<BladePrefetchState> blade_prefetch_;
  std::vector<uint64_t> prefetch_scratch_;
};

}  // namespace mind

#endif  // MIND_SRC_CORE_RACK_H_
