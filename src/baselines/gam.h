// GAM-like software DSM baseline, adapted to the disaggregated setting (§7, "Compared
// systems").
//
// GAM [Cai et al., VLDB'18] is a software distributed shared memory with a *compute-blade-
// homed* cache directory and PSO consistency. Its defining performance behaviours in the
// paper's comparison are:
//   1. Every access — even a local cache hit — pays user-level library overhead (permission
//      check + lock acquisition), ~10x MIND's MMU-backed local hit. The per-blade lock
//      serializes, which is what bends GAM's intra-blade scaling past ~4 threads (Fig. 5 left).
//   2. Misses traverse a *home node* (another compute blade) whose software handler runs on
//      a CPU, then the data is fetched from the owner/memory — sequential remote hops.
//   3. PSO lets writes propagate asynchronously, and page-granularity directory entries in
//      blade DRAM mean no capacity pressure and no false invalidations — which is why GAM
//      overtakes MIND-TSO under heavy read-write sharing (Fig. 5 center, M_A/M_C).
#ifndef MIND_SRC_BASELINES_GAM_H_
#define MIND_SRC_BASELINES_GAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/baselines/memory_system.h"
#include "src/blade/dram_cache.h"
#include "src/common/types.h"
#include "src/fault/fault_plane.h"
#include "src/net/fabric.h"
#include "src/prefetch/prefetch.h"
#include "src/sim/latency_model.h"
#include "src/sim/resource.h"

namespace mind {

struct GamConfig {
  int num_compute_blades = 8;
  int num_memory_blades = 8;
  uint64_t compute_cache_bytes = 512ull * 1024 * 1024;
  uint64_t home_chunk_pages = 512;  // 2 MB home-partition granularity.
  LatencyModel latency;
  // Fabric queueing discipline (src/net/queue_model.h); default kFifo = historical timing.
  FabricConfig fabric;
  SimTime lock_service = 150;       // Serialized slice of the per-access library work.
  // Software prefetching in the user-level library: predictions issue behind the blade's
  // FIFO library lock (speculation pays the same serialized entry every access does) and
  // register as sharers at the home directory. Default off (src/prefetch/prefetch.h).
  PrefetchConfig prefetch;
  // §4.4-style fault injection on the home-node request path (loss model only; stall
  // windows and scheduled drains are MIND control-plane machinery). An exhausted retry
  // budget triggers GAM's reset analog: the home drops the page's directory entry and
  // every cached copy is flushed.
  FaultPlaneConfig fault;
};

class GamSystem final : public MemorySystem {
 public:
  explicit GamSystem(GamConfig config);

  [[nodiscard]] std::string name() const override { return "GAM"; }
  [[nodiscard]] int num_compute_blades() const override { return config_.num_compute_blades; }

  Result<VirtAddr> Alloc(uint64_t size) override;
  Result<ThreadId> RegisterThread(ComputeBladeId blade) override;
  MIND_SERIALIZED_PATH AccessResult Access(ThreadId tid, ComputeBladeId blade, VirtAddr va,
                                           AccessType type,
                      SimTime now) override;
  [[nodiscard]] SystemCounters counters() const override { return counters_; }

  // Batched channel contract: a GAM cache hit touches only the blade's own cache, its
  // per-blade library lock and the thread's PSO pending-store list, so it classifies onto
  // the concurrent fast path. Hit latency includes the lock's FIFO queueing delay, which
  // other threads of the same blade move as their ops commit — so Submit only classifies
  // (with a lower-bound end clock), and the blade's group commit finalizes every latency
  // exactly as the serial library would have served the interleaved lock queue (see
  // src/core/access_channel.h).
  std::unique_ptr<AccessChannel> OpenChannel(ThreadId tid, ComputeBladeId blade) override;

  // Per-blade channel group: the group replays the blade's FIFO library-lock queue over
  // the *merged* (clock, thread) stream of its members in one pass, so every grouped op's
  // latency is exact at group-commit time — the interleaving the per-thread Submit could
  // not know is fully determined inside the batch — and the blade's lock advances once per
  // batch with identical aggregate stats.
  std::unique_ptr<ChannelGroup> OpenChannelGroup(ComputeBladeId blade) override;

  bool SetPrefetchPolicy(PrefetchPolicy policy) override {
    config_.prefetch.policy = policy;
    return true;
  }
  PrefetchStats prefetch_stats() override;

  [[nodiscard]] FaultCounters fault_counters() const override {
    return fault_plane_.counters();
  }

  // Interface blocks plus the fabric's counters and per-port occupancy gauges.
  void CollectMetrics(MetricsRegistry* reg, const std::string& prefix) override {
    MemorySystem::CollectMetrics(reg, prefix);
    fabric_.CollectMetrics(reg, prefix + "/fabric");
  }

  // Drains pending prefetch installs and re-armed windows for every blade (the re-arm gap
  // fix; see MemorySystem::AdvanceTo). Called once after the final op in every replay
  // mode, so it is mode-invariant.
  MIND_SERIALIZED_PATH void AdvanceTo(SimTime now) override;

  // Semantic-event tracing (src/obs/): every GAM emission site is on the
  // serialized Access path; a null sink costs one pointer compare per miss.
  bool SetTraceSink(TraceSink* sink) override {
    trace_ = sink;
    fault_plane_.SetTraceSink(sink);
    return true;
  }

 private:
  class Channel;
  class Group;
  // Page-granularity directory entry, held in the home blade's DRAM (unbounded).
  struct DirEntry {
    MsiState state = MsiState::kInvalid;
    ComputeBladeId owner = kInvalidComputeBlade;
    SharerMask sharers = 0;
    SimTime busy_until = 0;
  };

  struct BladeState {
    std::unique_ptr<DramCache> cache;
    FifoResource lock;     // User-level library lock (every access).
    FifoResource handler;  // Home-node request handler (software, one CPU path).
    std::unordered_map<uint64_t, DirEntry> directory;  // Pages homed at this blade.
    BladePrefetchState prefetch;  // In-flight/unused prefetch tables for this blade.
  };

  [[nodiscard]] ComputeBladeId HomeOf(uint64_t page) const {
    return static_cast<ComputeBladeId>((page / config_.home_chunk_pages) %
                                       static_cast<uint64_t>(config_.num_compute_blades));
  }
  [[nodiscard]] MemoryBladeId BackingBlade(uint64_t page) const {
    return static_cast<MemoryBladeId>((page / config_.home_chunk_pages) %
                                      static_cast<uint64_t>(config_.num_memory_blades));
  }
  // The single LatencyModel instance lives in the fabric; this is the constant view.
  [[nodiscard]] const LatencyModel& lat() const { return fabric_.latency(); }

  // One control hop between two compute blades, through the switch (plain forwarding).
  SimTime BladeToBlade(ComputeBladeId from, ComputeBladeId to, MessageKind kind, SimTime t);
  // Page fetch from the backing memory blade to `to`.
  SimTime FetchFromMemory(uint64_t page, ComputeBladeId to, SimTime t);
  // Page flush from `from` to the backing memory blade.
  SimTime FlushToMemory(uint64_t page, ComputeBladeId from, SimTime t);

  // PSO pending-store bookkeeping (same semantics as Rack's).
  struct PendingWrite {
    uint64_t page = 0;
    SimTime completion = 0;
  };
  SimTime PsoReadBarrier(ThreadId tid, uint64_t page, SimTime now);

  // The user-level library entry every access pays (GAM has no MMU help): PSO read
  // barrier, per-blade FIFO lock, then the local library work. Returns when the library
  // hands control back for a hit (or proceeds to the directory for a miss). The channel
  // group's commit replays the same steps over its merged batch.
  SimTime EnterLibrary(ThreadId tid, ComputeBladeId blade, uint64_t page, AccessType type,
                       SimTime now);

  // GAM's reset analog (§4.4 translated to a compute-blade-homed directory): drop the
  // page's directory entry at `home`, invalidate every blade's cached copy and flush the
  // dirty ones to the backing memory blade. Returns the last flush's landing time.
  SimTime ResetPage(uint64_t page, ComputeBladeId home, SimTime t);

  // --- Prefetch internals (all driven from the serialized Access path) ---
  PrefetchEngine& EnsurePrefetchEngine(ThreadId tid);
  void InstallReadyPrefetches(ComputeBladeId blade, SimTime now);
  void PrefetchAfterFault(ThreadId tid, ComputeBladeId blade, uint64_t page, SimTime done);
  // The issue half of PrefetchAfterFault, also driven by re-arm requests.
  void IssuePrefetches(PrefetchEngine& engine, ComputeBladeId blade, uint64_t page,
                       SimTime done);

  GamConfig config_;
  Fabric fabric_;
  FaultPlane fault_plane_;
  TraceSink* trace_ = nullptr;  // Serialized-path writes only, like counters_.
  std::vector<BladeState> blades_;
  std::unordered_map<ThreadId, std::vector<PendingWrite>> pending_writes_;
  SystemCounters counters_;
  VirtAddr next_va_ = 0x0000'7000'0000'0000ull;
  const VirtAddr first_va_ = next_va_;  // Prefetch candidates stay inside [first, next).
  ThreadId next_tid_ = 1;
  std::unordered_map<ThreadId, std::unique_ptr<PrefetchEngine>> prefetch_engines_;
  std::vector<uint64_t> prefetch_scratch_;
};

}  // namespace mind

#endif  // MIND_SRC_BASELINES_GAM_H_
