// FaultPlane end-to-end tests (§4.4): the fault conformance oracle (an identical fault
// seed/schedule must produce bit-identical counters, histograms and makespan across 1/2/4/8
// shards and channel groups on/off, for MIND, GAM and FastSwap, at every loss rate), the
// reset path after a blade death (no deadlock, directory entry gone, cached copies flushed,
// clean re-fault), scheduled blade drain/failover under live replay, stall windows, and the
// FaultCounters block algebra. Reliability-tracker unit tests live in net_test.cc.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/core/mind.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

// --- Shared helpers ------------------------------------------------------------------------

void ExpectReportsIdentical(const ReplayReport& want, const ReplayReport& got) {
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.total_ops, got.total_ops);
  EXPECT_EQ(want.counters.total_accesses, got.counters.total_accesses);
  EXPECT_EQ(want.counters.local_hits, got.counters.local_hits);
  EXPECT_EQ(want.counters.remote_accesses, got.counters.remote_accesses);
  EXPECT_EQ(want.counters.invalidations, got.counters.invalidations);
  EXPECT_EQ(want.counters.pages_flushed, got.counters.pages_flushed);
  EXPECT_EQ(want.counters.false_invalidations, got.counters.false_invalidations);
  EXPECT_TRUE(want.latency_histogram == got.latency_histogram);
  EXPECT_DOUBLE_EQ(want.avg_latency_us, got.avg_latency_us);
  EXPECT_DOUBLE_EQ(want.throughput_mops, got.throughput_mops);
  // The fault block is part of the oracle: same schedule => same timeouts, retransmissions,
  // resets, reset flushes, drains and stalls, bit for bit.
  EXPECT_TRUE(want.fault == got.fault);
}

ReplayReport RunReplay(MemorySystem* sys, const WorkloadTraces& traces, ReplayOptions opts) {
  ReplayEngine engine(sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  return engine.Run();
}

// The execution-strategy matrix every fault schedule must be invariant under: the per-op
// reference path, then channel groups on at 1/2/4/8 shards and off at 1/4.
void ExpectFaultConformance(const std::function<std::unique_ptr<MemorySystem>()>& make,
                            const WorkloadTraces& traces, const ReplayReport& want) {
  struct Mode {
    bool groups;
    int shards;
  };
  for (const Mode m : {Mode{true, 1}, Mode{true, 2}, Mode{true, 4}, Mode{true, 8},
                       Mode{false, 1}, Mode{false, 4}}) {
    SCOPED_TRACE(::testing::Message()
                 << (m.groups ? "groups" : "plain") << "/" << m.shards << "shards");
    auto sys = make();
    ReplayOptions opts;
    opts.shards = m.shards;
    opts.use_channel_groups = m.groups;
    ExpectReportsIdentical(want, RunReplay(sys.get(), traces, opts));
  }
}

ReplayReport SerialReference(const std::function<std::unique_ptr<MemorySystem>()>& make,
                             const WorkloadTraces& traces) {
  auto sys = make();
  ReplayOptions opts;
  opts.use_channels = false;  // Per-op reference: one virtual Access per op.
  return RunReplay(sys.get(), traces, opts);
}

RackConfig FaultRackConfig(double loss) {
  RackConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 4;
  c.memory_blade_capacity = 2ull << 30;
  c.compute_cache_bytes = 8ull << 20;  // Small cache: real LRU evictions during replay.
  c.directory_slots = 2048;            // Small directory: capacity evictions + merges.
  c.splitting.epoch_length = 2 * kMillisecond;
  c.fault.reliability.loss_probability = loss;
  return c;
}

GamConfig FaultGamConfig(double loss) {
  GamConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 4;
  c.compute_cache_bytes = 8ull << 20;
  c.fault.reliability.loss_probability = loss;
  return c;
}

FastSwapConfig FaultFastSwapConfig(double loss) {
  FastSwapConfig c;
  c.num_memory_blades = 4;
  c.compute_cache_bytes = 4ull << 20;  // 1024 frames: real faults and evictions.
  c.fault.reliability.loss_probability = loss;
  return c;
}

WorkloadSpec CoherenceSpec(int blades) {
  // Zipfian shared table with 50/50 GET/SET: dense invalidation waves and remote fetches —
  // plenty of message-with-ACK sends for the loss model to bite.
  WorkloadSpec spec = MemcachedASpec(blades, /*threads_per_blade=*/2,
                                     /*accesses_per_thread=*/2500);
  spec.shared_pages = 4096;
  return spec;
}

WorkloadSpec SwapSpec() {
  // Single-blade working set ~1.5x the FastSwap cache: a steady fault/eviction stream.
  WorkloadSpec spec;
  spec.name = "fastswap-faulty";
  spec.num_blades = 1;
  spec.threads_per_blade = 2;
  spec.private_pages_per_thread = 800;
  spec.private_pattern = Pattern::kUniform;
  spec.private_write_fraction = 0.5;
  spec.accesses_per_thread = 5000;
  return spec;
}

// --- The fault conformance oracle: loss rates x systems x execution strategies -------------

TEST(FaultConformance, MindBitIdenticalAtEveryLossRate) {
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  for (const double loss : {0.0, 0.005, 0.05}) {
    SCOPED_TRACE(loss);
    auto make = [loss] { return std::make_unique<MindSystem>(FaultRackConfig(loss)); };
    const ReplayReport want = SerialReference(make, traces);
    ASSERT_GT(want.total_ops, 0u);
    if (loss == 0.0) {
      EXPECT_TRUE(want.fault == FaultCounters{});  // Loss-free stays fault-silent.
    } else {
      EXPECT_GT(want.fault.timeouts, 0u);  // The loss model actually bit.
    }
    ExpectFaultConformance(make, traces, want);
  }
}

TEST(FaultConformance, GamBitIdenticalAtEveryLossRate) {
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  for (const double loss : {0.0, 0.005, 0.05}) {
    SCOPED_TRACE(loss);
    auto make = [loss] { return std::make_unique<GamSystem>(FaultGamConfig(loss)); };
    const ReplayReport want = SerialReference(make, traces);
    ASSERT_GT(want.total_ops, 0u);
    if (loss == 0.0) {
      EXPECT_TRUE(want.fault == FaultCounters{});
    } else {
      EXPECT_GT(want.fault.timeouts, 0u);
    }
    ExpectFaultConformance(make, traces, want);
  }
}

TEST(FaultConformance, FastSwapBitIdenticalAtEveryLossRate) {
  const WorkloadTraces traces = GenerateTraces(SwapSpec());
  for (const double loss : {0.0, 0.005, 0.05}) {
    SCOPED_TRACE(loss);
    auto make = [loss] {
      return std::make_unique<FastSwapSystem>(FaultFastSwapConfig(loss));
    };
    const ReplayReport want = SerialReference(make, traces);
    ASSERT_GT(want.total_ops, 0u);
    if (loss == 0.0) {
      EXPECT_TRUE(want.fault == FaultCounters{});
    } else {
      EXPECT_GT(want.fault.timeouts, 0u);
      // FastSwap never resets: the kernel retries, so exhaustion only delays the fetch.
      EXPECT_EQ(want.fault.resets_triggered, 0u);
    }
    ExpectFaultConformance(make, traces, want);
  }
}

TEST(FaultConformance, MindBladeDeathScheduleIsModeInvariant) {
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  // Probe the fault-free makespan, then kill blade 1 halfway through the replay.
  const SimTime makespan =
      SerialReference([] { return std::make_unique<MindSystem>(FaultRackConfig(0.0)); },
                      traces)
          .makespan;
  ASSERT_GT(makespan, 0u);
  RackConfig config = FaultRackConfig(0.0);
  config.fault.death.blade = 1;
  config.fault.death.at = makespan / 2;
  auto make = [config] { return std::make_unique<MindSystem>(config); };
  const ReplayReport want = SerialReference(make, traces);
  // Waves targeting the dead blade exhaust their budgets deterministically (no RNG draw)
  // and reset their regions — the replay must survive and stay bit-identical.
  EXPECT_GT(want.fault.resets_triggered, 0u);
  EXPECT_GT(want.fault.timeouts, 0u);
  EXPECT_GT(want.fault.pages_flushed_by_reset, 0u);
  ExpectFaultConformance(make, traces, want);
}

TEST(FaultConformance, MindScheduledDrainIsModeInvariant) {
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SimTime makespan =
      SerialReference([] { return std::make_unique<MindSystem>(FaultRackConfig(0.0)); },
                      traces)
          .makespan;
  ASSERT_GT(makespan, 0u);
  RackConfig config = FaultRackConfig(0.0);
  config.fault.drains.push_back(
      FaultPlaneConfig::BladeDrain{/*blade=*/0, /*dst=*/1, /*at=*/makespan / 2});
  auto make = [config] { return std::make_unique<MindSystem>(config); };
  const ReplayReport want = SerialReference(make, traces);
  // The drain completed mid-replay and actually moved memory off the blade. Bit-identity
  // across shard counts is exactly what the engine's horizon clamp at
  // NextScheduledFaultAt() guarantees: no channel hit commits past the drain's clock.
  EXPECT_EQ(want.fault.drains_completed, 1u);
  EXPECT_GT(want.fault.drain_pages_migrated, 0u);
  ExpectFaultConformance(make, traces, want);
}

TEST(FaultConformance, MindFullFaultStormIsModeInvariant) {
  // Everything at once: seeded loss, a mid-replay blade death, a scheduled drain and a
  // stall window — the worst-case schedule must still be an execution-strategy invariant.
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SimTime makespan =
      SerialReference([] { return std::make_unique<MindSystem>(FaultRackConfig(0.0)); },
                      traces)
          .makespan;
  ASSERT_GT(makespan, 0u);
  RackConfig config = FaultRackConfig(0.005);
  config.fault.death.blade = 2;
  config.fault.death.at = (makespan * 3) / 4;
  config.fault.drains.push_back(
      FaultPlaneConfig::BladeDrain{/*blade=*/1, /*dst=*/3, /*at=*/makespan / 2});
  config.fault.stalls.push_back(FaultPlaneConfig::StallWindow{
      /*blade=*/3, /*from=*/makespan / 4, /*until=*/makespan / 2,
      /*delay=*/20 * kMicrosecond});
  auto make = [config] { return std::make_unique<MindSystem>(config); };
  const ReplayReport want = SerialReference(make, traces);
  EXPECT_GT(want.fault.timeouts, 0u);
  EXPECT_EQ(want.fault.drains_completed, 1u);
  ExpectFaultConformance(make, traces, want);
}

// --- The owner drain under fault schedules ------------------------------------------

TEST(FaultConformance, OwnerParallelDrainInvariantUnderFaults) {
  // The region-ownership drain partition against three fault schedules — fault-free,
  // 0.5% seeded loss, and a mid-replay scheduled blade drain — at 1/2/4/8 shards, groups
  // on and off. Every time-driven boundary serializes through the drain safety horizon
  // (NextScheduledFaultAt clamps it), so the results and the drain composition
  // (owner-drained subset included) are bit-identical across the whole matrix.
  const WorkloadTraces traces = GenerateTraces(CoherenceSpec(4));
  const SimTime makespan =
      SerialReference([] { return std::make_unique<MindSystem>(FaultRackConfig(0.0)); },
                      traces)
          .makespan;
  ASSERT_GT(makespan, 0u);

  RackConfig drained = FaultRackConfig(0.0);
  drained.fault.drains.push_back(
      FaultPlaneConfig::BladeDrain{/*blade=*/0, /*dst=*/1, /*at=*/makespan / 2});
  const std::vector<std::pair<std::string, RackConfig>> schedules = {
      {"no-fault", FaultRackConfig(0.0)},
      {"loss-0.5%", FaultRackConfig(0.005)},
      {"scheduled-drain", drained},
  };
  for (const auto& [label, config] : schedules) {
    SCOPED_TRACE(label);
    auto make = [&config] { return std::make_unique<MindSystem>(config); };
    const ReplayReport want = SerialReference(make, traces);
    uint64_t owner_expected = 0;
    bool first = true;
    for (const bool groups : {true, false}) {
      for (const int shards : {1, 2, 4, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << (groups ? "groups" : "plain") << "/" << shards << "shards");
        auto sys = make();
        ReplayOptions opts;
        opts.shards = shards;
        opts.use_channel_groups = groups;
        ReplayEngine engine(sys.get(), &traces, opts);
        ASSERT_TRUE(engine.Setup().ok());
        ExpectReportsIdentical(want, engine.Run());
        uint64_t owner = 0;
        for (const ShardReport& sr : engine.shard_reports()) {
          owner += sr.owner_drained;
        }
        EXPECT_GT(owner, 0u);  // Engaged even while the schedule fires.
        if (first) {
          owner_expected = owner;
          first = false;
        } else {
          EXPECT_EQ(owner, owner_expected);  // Composition is matrix-invariant.
        }
      }
    }
  }
}

// --- The reset path after a blade death (§4.4), at rack level ------------------------------

RackConfig ResetTestConfig() {
  RackConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 2;
  c.memory_blade_capacity = 1ull << 30;
  c.compute_cache_bytes = 16ull << 20;
  c.splitting.epoch_length = 100 * kMillisecond;
  return c;
}

class FaultRackTest : public ::testing::Test {
 protected:
  void Init(const RackConfig& cfg) {
    rack_ = std::make_unique<Rack>(cfg);
    pid_ = *rack_->Exec("test");
    pdid_ = *rack_->controller().PdidOf(pid_);
    for (int i = 0; i < cfg.num_compute_blades; ++i) {
      tids_.push_back(rack_->SpawnThread(pid_, static_cast<ComputeBladeId>(i))->tid);
    }
    va_ = *rack_->Mmap(pid_, 4ull << 20, PermClass::kReadWrite);
  }

  AccessResult Go(int blade, VirtAddr va, AccessType t, SimTime now) {
    return rack_->Access(AccessRequest{tids_[static_cast<size_t>(blade)],
                                       static_cast<ComputeBladeId>(blade), pdid_, va, t,
                                       now});
  }

  std::unique_ptr<Rack> rack_;
  ProcessId pid_ = kInvalidProcess;
  ProtDomainId pdid_ = 0;
  std::vector<ThreadId> tids_;
  VirtAddr va_ = 0;
};

TEST_F(FaultRackTest, BladeDeathMidTransitionResetsAndRecovers) {
  RackConfig cfg = ResetTestConfig();
  cfg.fault.death.blade = 1;
  cfg.fault.death.at = 10 * kMillisecond;
  Init(cfg);

  // Blade 1 writes: it becomes the Modified owner with a dirty cached copy.
  auto w = Go(1, va_, AccessType::kWrite, 0);
  ASSERT_TRUE(w.status.ok());
  ASSERT_EQ(w.next_state, MsiState::kModified);
  ASSERT_GT(rack_->compute_blade(1).cache().CountRange(PageNumber(va_), PageNumber(va_) + 1),
            0u);

  // Blade 1 dies at 10 ms. Blade 0's read needs the owner's copy — the invalidation wave
  // targets a dead blade, deterministically exhausts its retry budget (no deadlock: the
  // requester bounds the wait at (max_retransmissions + 1) * ack_timeout) and resets.
  const SimTime after_death = 11 * kMillisecond;
  auto r = Go(0, va_, AccessType::kRead, after_death);
  EXPECT_EQ(r.status.code(), ErrorCode::kTimedOut);
  const auto& rel = rack_->fault_plane().config().reliability;
  // Latency = switch pipeline work up to the wave + the full timeout-summed wait.
  const SimTime budget = static_cast<SimTime>(rel.max_retransmissions + 1) * rel.ack_timeout;
  EXPECT_GE(r.latency, budget);
  EXPECT_LT(r.latency, budget + 10 * kMicrosecond);

  // §4.4 postconditions: directory entry removed, every blade's copies flushed.
  EXPECT_EQ(rack_->directory().Lookup(va_), nullptr);
  for (int b = 0; b < cfg.num_compute_blades; ++b) {
    EXPECT_EQ(rack_->compute_blade(static_cast<ComputeBladeId>(b))
                  .cache()
                  .CountRange(PageNumber(va_), PageNumber(va_) + 1),
              0u)
        << "blade " << b;
  }
  const FaultCounters fc = rack_->fault_plane().counters();
  EXPECT_EQ(fc.resets_triggered, 1u);
  EXPECT_EQ(fc.timeouts, static_cast<uint64_t>(rel.max_retransmissions + 1));
  EXPECT_GE(fc.pages_flushed_by_reset, 1u);  // The dead owner's dirty copy was preserved.

  // Replay continues: the next access re-faults cleanly from scratch (blade 1 is dead but
  // no longer holds the region, so no wave targets it).
  auto retry = Go(0, va_, AccessType::kRead, r.completion);
  ASSERT_TRUE(retry.status.ok());
  EXPECT_EQ(retry.next_state, MsiState::kShared);
  EXPECT_EQ(rack_->fault_plane().counters().resets_triggered, 1u);  // No second reset.
}

TEST_F(FaultRackTest, DeathScheduleInertBeforeItsClock) {
  RackConfig cfg = ResetTestConfig();
  cfg.fault.death.blade = 1;
  cfg.fault.death.at = 10 * kMillisecond;
  Init(cfg);
  // The same M -> S transition before the death clock behaves exactly as a healthy rack.
  auto w = Go(1, va_, AccessType::kWrite, 0);
  ASSERT_TRUE(w.status.ok());
  auto r = Go(0, va_, AccessType::kRead, w.completion);
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(rack_->fault_plane().counters() == FaultCounters{});
}

// --- Stall windows --------------------------------------------------------------------------

TEST_F(FaultRackTest, StallWindowDelaysInvalidationAcks) {
  // Baseline: healthy M -> S downgrade latency.
  Init(ResetTestConfig());
  auto w0 = Go(1, va_, AccessType::kWrite, 0);
  ASSERT_TRUE(w0.status.ok());
  const auto base = Go(0, va_, AccessType::kRead, w0.completion);
  ASSERT_TRUE(base.status.ok());

  // Same transition with blade 1's deliveries stalled by 50 us: the wave's ACK — and the
  // requester's committed latency — move by at least the stall.
  RackConfig cfg = ResetTestConfig();
  const SimTime stall = 50 * kMicrosecond;
  cfg.fault.stalls.push_back(FaultPlaneConfig::StallWindow{
      /*blade=*/1, /*from=*/0, /*until=*/FaultPlane::kNever, /*delay=*/stall});
  tids_.clear();
  Init(cfg);
  auto w1 = Go(1, va_, AccessType::kWrite, 0);
  ASSERT_TRUE(w1.status.ok());
  const auto stalled = Go(0, va_, AccessType::kRead, w1.completion);
  ASSERT_TRUE(stalled.status.ok());
  EXPECT_GE(stalled.latency, base.latency + stall);
  EXPECT_EQ(rack_->fault_plane().counters().stalled_deliveries, 1u);
}

// --- Graceful blade drain/failover ----------------------------------------------------------

TEST_F(FaultRackTest, DrainMemoryBladeMigratesAndRetargets) {
  Init(ResetTestConfig());
  // Dirty the region so the drain's shoot-down has real write-backs to preserve.
  SimTime t = 0;
  for (int i = 0; i < 8; ++i) {
    t = Go(0, va_ + static_cast<VirtAddr>(i) * kPageSize, AccessType::kWrite, t).completion;
  }
  const MemoryBladeId src = rack_->translator().Translate(va_)->blade;
  const MemoryBladeId dst = static_cast<MemoryBladeId>(src == 0 ? 1 : 0);

  auto done = rack_->DrainMemoryBlade(src, dst, t);
  ASSERT_TRUE(done.ok());
  EXPECT_GT(*done, t);  // Migration work takes simulated time.

  // Translation retargeted: the whole vma now resolves to the survivor.
  for (uint64_t off = 0; off < (4ull << 20); off += kPageSize) {
    ASSERT_EQ(rack_->translator().Translate(va_ + off)->blade, dst);
  }
  const FaultCounters fc = rack_->fault_plane().counters();
  EXPECT_EQ(fc.drains_completed, 1u);
  EXPECT_GT(fc.drain_pages_migrated, 0u);

  // The drained blade is offline to the allocator: new vmas land elsewhere.
  const VirtAddr fresh = *rack_->Mmap(pid_, 1ull << 20, PermClass::kReadWrite);
  EXPECT_NE(rack_->translator().Translate(fresh)->blade, src);

  // Accesses after the drain fetch from the new home and rebuild coherence state.
  auto r = Go(2, va_, AccessType::kRead, *done);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.local_hit);
}

TEST_F(FaultRackTest, ScheduledDrainFiresAtItsClockViaAccess) {
  RackConfig cfg = ResetTestConfig();
  const SimTime drain_at = 5 * kMillisecond;
  cfg.fault.drains.push_back(FaultPlaneConfig::BladeDrain{/*blade=*/0, /*dst=*/1, drain_at});
  Init(cfg);
  ASSERT_EQ(rack_->NextScheduledFaultAt(), drain_at);

  auto before = Go(0, va_, AccessType::kWrite, 0);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(rack_->fault_plane().counters().drains_completed, 0u);  // Not due yet.

  // The first access at or past the scheduled clock runs the drain before anything else.
  auto after = Go(0, va_, AccessType::kRead, drain_at + 1);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(rack_->fault_plane().counters().drains_completed, 1u);
  EXPECT_EQ(rack_->NextScheduledFaultAt(), FaultPlane::kNever);
  EXPECT_EQ(rack_->translator().Translate(va_)->blade, 1);
}

// --- FaultCounters block algebra ------------------------------------------------------------

TEST(FaultCountersBlock, MergeAndDeltaMirrorSystemCounters) {
  FaultCounters a;
  a.timeouts = 10;
  a.retransmissions = 7;
  a.resets_triggered = 2;
  a.pages_flushed_by_reset = 5;
  a.drains_completed = 1;
  a.drain_pages_migrated = 512;
  a.stalled_deliveries = 3;
  FaultCounters b = a;
  b.timeouts = 4;
  a.Merge(b);
  EXPECT_EQ(a.timeouts, 14u);
  EXPECT_EQ(a.retransmissions, 14u);
  EXPECT_EQ(a.resets_triggered, 4u);
  EXPECT_EQ(a.pages_flushed_by_reset, 10u);
  EXPECT_EQ(a.drains_completed, 2u);
  EXPECT_EQ(a.drain_pages_migrated, 1024u);
  EXPECT_EQ(a.stalled_deliveries, 6u);

  const FaultCounters d = a.DeltaSince(b);
  EXPECT_EQ(d.timeouts, 10u);
  EXPECT_EQ(d.retransmissions, 7u);
  EXPECT_EQ(d.resets_triggered, 2u);
  EXPECT_EQ(d.pages_flushed_by_reset, 5u);
  EXPECT_EQ(d.drains_completed, 1u);
  EXPECT_EQ(d.drain_pages_migrated, 512u);
  EXPECT_EQ(d.stalled_deliveries, 3u);
  EXPECT_TRUE(FaultCounters{} == FaultCounters{}.DeltaSince(FaultCounters{}));
}

}  // namespace
}  // namespace mind
