// FaultPlane end-to-end tests (§4.4) at rack level: the reset path after a blade death
// (no deadlock, directory entry gone, cached copies flushed, clean re-fault), stall
// windows, graceful and scheduled blade drains, and the FaultCounters block algebra. That
// channel replay under a fault plan is bit-identical to per-op replay on every system is
// checked by the seeded conformance fuzzer, tests/replay_fuzz_test.cc. Reliability-tracker
// unit tests live in net_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/mind.h"

namespace mind {
namespace {

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
