// MemorySystem adapter over the MIND rack.
#ifndef MIND_SRC_BASELINES_MIND_SYSTEM_H_
#define MIND_SRC_BASELINES_MIND_SYSTEM_H_

#include <memory>
#include <string>

#include "src/baselines/memory_system.h"
#include "src/core/mind.h"

namespace mind {

class MindSystem final : public MemorySystem {
 public:
  explicit MindSystem(RackConfig config, std::string label = "MIND")
      : rack_(std::make_unique<Rack>(config)), label_(std::move(label)) {
    auto pid = rack_->Exec("workload");
    pid_ = *pid;
    pdid_ = *rack_->controller().PdidOf(pid_);
  }

  [[nodiscard]] std::string name() const override { return label_; }
  [[nodiscard]] int num_compute_blades() const override {
    return rack_->config().num_compute_blades;
  }

  Result<VirtAddr> Alloc(uint64_t size) override {
    return rack_->Mmap(pid_, size, PermClass::kReadWrite);
  }

  Result<ThreadId> RegisterThread(ComputeBladeId blade) override {
    auto placement = rack_->SpawnThread(pid_, blade);
    if (!placement.ok()) {
      return placement.status();
    }
    return placement->tid;
  }

  MIND_SERIALIZED_PATH AccessResult Access(ThreadId tid, ComputeBladeId blade, VirtAddr va,
                                           AccessType type, SimTime now) override {
    return rack_->Access(AccessRequest{tid, blade, pdid_, va, type, now});
  }

  // Batched channel contract: MIND's blade-local hit path completes without touching any
  // cross-blade state, so the rack's channel classifies whole runs with exact latencies
  // (see the contract notes in rack.h and src/core/access_channel.h).
  std::unique_ptr<AccessChannel> OpenChannel(ThreadId tid, ComputeBladeId blade) override {
    return rack_->OpenChannel(tid, blade, pdid_);
  }
  std::unique_ptr<ChannelGroup> OpenChannelGroup(ComputeBladeId blade) override {
    return rack_->OpenChannelGroup(blade);
  }
  MIND_SERIALIZED_PATH void AdvanceTo(SimTime now) override { rack_->AdvanceTo(now); }

  bool SetPrefetchPolicy(PrefetchPolicy policy) override {
    rack_->SetPrefetchPolicy(policy);
    return true;
  }
  PrefetchStats prefetch_stats() override { return rack_->prefetch_stats(); }

  [[nodiscard]] SystemCounters counters() const override {
    const RackStats& s = rack_->stats();
    SystemCounters c;
    c.total_accesses = s.total_accesses;
    c.local_hits = s.local_hits;
    c.remote_accesses = s.remote_accesses;
    c.invalidations = s.invalidations_sent;
    c.pages_flushed = s.pages_flushed;
    c.false_invalidations = s.false_invalidations;
    c.breakdown_sums = s.breakdown_sums;
    return c;
  }

  [[nodiscard]] FaultCounters fault_counters() const override {
    return rack_->fault_plane().counters();
  }
  [[nodiscard]] SimTime NextScheduledFaultAt() const override {
    return rack_->NextScheduledFaultAt();
  }

  bool SetTraceSink(TraceSink* sink) override {
    rack_->SetTraceSink(sink);
    return true;
  }

  // Interface blocks plus MIND's richer RackStats and the bounded-splitting
  // controller state, under the same prefix tree.
  void CollectMetrics(MetricsRegistry* reg, const std::string& prefix) override {
    MemorySystem::CollectMetrics(reg, prefix);
    const RackStats& s = rack_->stats();
    reg->SetCounter(prefix + "/rack/clean_drops", s.clean_drops);
    reg->SetCounter(prefix + "/rack/evict_writebacks", s.evict_writebacks);
    reg->SetCounter(prefix + "/rack/permission_denials", s.permission_denials);
    reg->SetCounter(prefix + "/rack/directory_capacity_evictions",
                    s.directory_capacity_evictions);
    reg->SetCounter(prefix + "/rack/write_upgrades", s.write_upgrades);
    reg->SetCounter(prefix + "/rack/transitions/i_to_s", s.transitions_i_to_s);
    reg->SetCounter(prefix + "/rack/transitions/i_to_m", s.transitions_i_to_m);
    reg->SetCounter(prefix + "/rack/transitions/s_to_s", s.transitions_s_to_s);
    reg->SetCounter(prefix + "/rack/transitions/s_to_m", s.transitions_s_to_m);
    reg->SetCounter(prefix + "/rack/transitions/m_to_s", s.transitions_m_to_s);
    reg->SetCounter(prefix + "/rack/transitions/m_to_m", s.transitions_m_to_m);
    reg->SetCounter(prefix + "/rack/transitions/m_stay", s.transitions_m_stay);
    const BoundedSplittingStats& bs = rack_->bounded_splitting().stats();
    reg->SetCounter(prefix + "/splitting/epochs", bs.epochs);
    reg->SetCounter(prefix + "/splitting/splits", bs.splits);
    reg->SetCounter(prefix + "/splitting/merges", bs.merges);
    reg->SetCounter(prefix + "/splitting/split_failures", bs.split_failures);
    reg->SetGauge(prefix + "/splitting/last_threshold", bs.last_threshold);
    reg->SetGauge(prefix + "/splitting/current_c", bs.current_c);
    rack_->fabric().CollectMetrics(reg, prefix + "/fabric");
  }

  [[nodiscard]] Rack& rack() { return *rack_; }
  [[nodiscard]] ProcessId pid() const { return pid_; }

 private:
  std::unique_ptr<Rack> rack_;
  std::string label_;
  ProcessId pid_ = kInvalidProcess;
  ProtDomainId pdid_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_BASELINES_MIND_SYSTEM_H_
