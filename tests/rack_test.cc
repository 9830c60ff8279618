// Integration tests for the full MIND rack: every MSI transition end-to-end, latency
// calibration against Fig. 7 (left), false-invalidation accounting, PSO semantics,
// directory capacity pressure, the §4.4 reset path and teardown.
#include <gtest/gtest.h>

#include <cstring>

#include "src/core/mind.h"

namespace mind {
namespace {

RackConfig TestConfig() {
  RackConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 2;
  c.memory_blade_capacity = 1ull << 30;
  c.compute_cache_bytes = 16ull << 20;  // 4096 frames.
  c.store_data = false;
  c.splitting.epoch_length = 100 * kMillisecond;
  return c;
}

class RackTest : public ::testing::Test {
 protected:
  void SetUp() override { Init(TestConfig()); }

  void Init(const RackConfig& cfg) {
    rack_ = std::make_unique<Rack>(cfg);
    pid_ = *rack_->Exec("test");
    pdid_ = *rack_->controller().PdidOf(pid_);
    for (int i = 0; i < cfg.num_compute_blades; ++i) {
      tids_.push_back(rack_->SpawnThread(pid_, static_cast<ComputeBladeId>(i))->tid);
    }
    va_ = *rack_->Mmap(pid_, 4ull << 20, PermClass::kReadWrite);  // 4 MB vma.
  }

  AccessResult Go(int blade, VirtAddr va, AccessType t, SimTime now) {
    return rack_->Access(AccessRequest{tids_[static_cast<size_t>(blade)],
                                       static_cast<ComputeBladeId>(blade), pdid_, va, t, now});
  }

  std::unique_ptr<Rack> rack_;
  ProcessId pid_ = kInvalidProcess;
  ProtDomainId pdid_ = 0;
  std::vector<ThreadId> tids_;
  VirtAddr va_ = 0;
};

// --- Basic transitions and calibration -------------------------------------------------

TEST_F(RackTest, ColdReadIsOneRttAndCaches) {
  auto r = Go(0, va_, AccessType::kRead, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.local_hit);
  EXPECT_EQ(r.prev_state, MsiState::kInvalid);
  EXPECT_EQ(r.next_state, MsiState::kShared);
  // Fig. 7 (left): 1-RTT fetch in the 8.5-9.4 us band.
  EXPECT_GE(ToMicros(r.latency), 8.0);
  EXPECT_LE(ToMicros(r.latency), 9.5);

  auto again = Go(0, va_, AccessType::kRead, r.completion);
  EXPECT_TRUE(again.local_hit);
  EXPECT_LT(again.latency, 100u);  // Local DRAM hit (§7.2).
}

TEST_F(RackTest, ColdWriteGoesModified) {
  auto r = Go(0, va_, AccessType::kWrite, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.next_state, MsiState::kModified);
  const DirectoryEntry* e = rack_->directory().Lookup(va_);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, MsiState::kModified);
  EXPECT_EQ(e->owner, 0);
  // Writes are cached writable: the next write is a pure DRAM hit.
  auto w2 = Go(0, va_, AccessType::kWrite, r.completion);
  EXPECT_TRUE(w2.local_hit);
}

TEST_F(RackTest, SharedReadersJoinSharerList) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kRead, t).completion;
  t = Go(1, va_, AccessType::kRead, t).completion;
  auto r = Go(2, va_ + kPageSize, AccessType::kRead, t);  // Same region, different page.
  EXPECT_EQ(r.prev_state, MsiState::kShared);
  const DirectoryEntry* e = rack_->directory().Lookup(va_);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sharers, BladeBit(0) | BladeBit(1) | BladeBit(2));
  EXPECT_EQ(rack_->stats().invalidations_sent, 0u);  // Pure read sharing: no invalidations.
}

TEST_F(RackTest, SharedWriteInvalidatesOtherSharers) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kRead, t).completion;
  t = Go(1, va_, AccessType::kRead, t).completion;
  auto w = Go(2, va_, AccessType::kWrite, t);
  ASSERT_TRUE(w.status.ok());
  EXPECT_TRUE(w.triggered_invalidation);
  EXPECT_EQ(w.prev_state, MsiState::kShared);
  EXPECT_EQ(w.next_state, MsiState::kModified);
  EXPECT_EQ(rack_->stats().invalidations_sent, 2u);  // Blades 0 and 1, not the requester.
  // The previous sharers' pages are gone.
  EXPECT_EQ(rack_->compute_blade(0).cache().CountRange(PageNumber(va_), PageNumber(va_) + 1),
            0u);
  EXPECT_EQ(rack_->compute_blade(1).cache().CountRange(PageNumber(va_), PageNumber(va_) + 1),
            0u);
  // Clean S-state copies are dropped, not flushed.
  EXPECT_EQ(rack_->stats().pages_flushed, 0u);
  EXPECT_EQ(rack_->stats().clean_drops, 2u);
}

TEST_F(RackTest, ModifiedHandoffIsSequentialTwoRtt) {
  SimTime t = 0;
  auto w = Go(0, va_, AccessType::kWrite, t);
  ASSERT_TRUE(w.status.ok());
  auto r = Go(1, va_, AccessType::kRead, w.completion);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.prev_state, MsiState::kModified);
  EXPECT_EQ(r.next_state, MsiState::kShared);
  EXPECT_TRUE(r.triggered_invalidation);
  // Fig. 7 (left): M->S is ~2x the 1-RTT latency (flush then fetch), ~18 us.
  EXPECT_GE(ToMicros(r.latency), 15.0);
  EXPECT_LE(ToMicros(r.latency), 21.0);
  // The dirty page was flushed (it IS the requested page: not a false invalidation).
  EXPECT_EQ(rack_->stats().pages_flushed, 1u);
  EXPECT_EQ(rack_->stats().false_invalidations, 0u);
  // Old owner dropped its PTEs (§6.1) and the requester became the only sharer.
  const DirectoryEntry* e = rack_->directory().Lookup(va_);
  EXPECT_EQ(e->sharers, BladeBit(1));
}

TEST_F(RackTest, OwnershipHandoffOnRemoteWrite) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kWrite, t).completion;
  auto w = Go(1, va_, AccessType::kWrite, t);
  EXPECT_EQ(w.prev_state, MsiState::kModified);
  EXPECT_EQ(w.next_state, MsiState::kModified);
  const DirectoryEntry* e = rack_->directory().Lookup(va_);
  EXPECT_EQ(e->owner, 1);
  EXPECT_GE(ToMicros(w.latency), 15.0);  // Sequential flush-then-fetch.
}

TEST_F(RackTest, OwnerFaultInOwnRegionIsOneRtt) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kWrite, t).completion;
  // Same region (16 KB initial), different page: still M-owned by blade 0.
  auto r = Go(0, va_ + kPageSize, AccessType::kWrite, t);
  EXPECT_EQ(r.prev_state, MsiState::kModified);
  EXPECT_FALSE(r.triggered_invalidation);
  EXPECT_LE(ToMicros(r.latency), 9.5);  // No invalidation: single RTT.
  EXPECT_EQ(rack_->stats().transitions_m_stay, 1u);
}

TEST_F(RackTest, WriteUpgradeSkipsDataFetch) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kRead, t).completion;  // Cached read-only at blade 0.
  auto w = Go(0, va_, AccessType::kWrite, t);       // Upgrade in place, no other sharers.
  ASSERT_TRUE(w.status.ok());
  EXPECT_FALSE(w.triggered_invalidation);  // Only sharer is the requester itself.
  EXPECT_EQ(rack_->stats().write_upgrades, 1u);
  // No page payload moved: cheaper than a full fetch.
  EXPECT_LT(w.latency, Go(1, va_ + (2ull << 20), AccessType::kRead, t).latency);
}

// --- False invalidations (§4.3.1) -------------------------------------------------------

TEST_F(RackTest, FalseInvalidationsCountDirtyNonRequestedPages) {
  SimTime t = 0;
  // Blade 0 dirties three pages of one 16 KB region.
  for (int p = 0; p < 3; ++p) {
    t = Go(0, va_ + static_cast<uint64_t>(p) * kPageSize, AccessType::kWrite, t).completion;
  }
  // Blade 1 writes the fourth page of the same region: the whole region is invalidated at
  // blade 0; its 3 dirty pages flush, and since none of them is the requested page, all 3
  // are false invalidations.
  auto w = Go(1, va_ + 3 * kPageSize, AccessType::kWrite, t);
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(rack_->stats().pages_flushed, 3u);
  EXPECT_EQ(rack_->stats().false_invalidations, 3u);
}

TEST_F(RackTest, RequestedDirtyPageIsNotFalse) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kWrite, t).completion;       // One dirty page.
  auto w = Go(1, va_, AccessType::kWrite, t);             // Request exactly that page.
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(rack_->stats().pages_flushed, 1u);
  EXPECT_EQ(rack_->stats().false_invalidations, 0u);
}

// --- Breakdown accounting ---------------------------------------------------------------

TEST_F(RackTest, BreakdownSumsToTotal) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kWrite, t).completion;
  auto r = Go(1, va_, AccessType::kRead, t);
  ASSERT_FALSE(r.local_hit);
  EXPECT_EQ(r.breakdown.Total(), r.latency);  // Additive decomposition (Fig. 7 right).
  EXPECT_GT(r.breakdown.inv_tlb, 0u);         // Invalidation path includes a shootdown.
  EXPECT_GT(r.breakdown.network, r.breakdown.fault);
}

// --- Protection and faults ---------------------------------------------------------------

TEST_F(RackTest, ReadOnlyVmaRejectsWrites) {
  auto ro = rack_->Mmap(pid_, 64 * kPageSize, PermClass::kReadOnly);
  ASSERT_TRUE(ro.ok());
  EXPECT_TRUE(Go(0, *ro, AccessType::kRead, 0).status.ok());
  auto w = Go(0, *ro, AccessType::kWrite, 0);
  EXPECT_EQ(w.status.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(rack_->stats().permission_denials, 1u);
}

TEST_F(RackTest, ForeignDomainRejected) {
  const ProtDomainId intruder = 4242;
  auto r = rack_->Access(AccessRequest{tids_[0], 0, intruder, va_, AccessType::kRead, 0});
  EXPECT_EQ(r.status.code(), ErrorCode::kPermissionDenied);
}

TEST_F(RackTest, UnmappedAddressFaults) {
  auto r = Go(0, va_ + (512ull << 20), AccessType::kRead, 0);
  EXPECT_EQ(r.status.code(), ErrorCode::kFault);
}

// --- PSO (§6.1, §7.1) ---------------------------------------------------------------------

TEST_F(RackTest, PsoWritesReturnEarly) {
  RackConfig pso = TestConfig();
  pso.consistency = ConsistencyModel::kPso;
  Init(pso);
  // Prime: two sharers so the write needs invalidations.
  SimTime t = 0;
  t = Go(0, va_, AccessType::kRead, t).completion;
  t = Go(1, va_, AccessType::kRead, t).completion;
  auto w = Go(2, va_, AccessType::kWrite, t);
  ASSERT_TRUE(w.status.ok());
  // Thread-visible latency is just the issue cost; completion is much later.
  EXPECT_LT(ToMicros(w.latency), 3.0);
  EXPECT_GT(w.completion, t + w.latency);
}

TEST_F(RackTest, PsoReadAfterWriteBlocks) {
  RackConfig pso = TestConfig();
  pso.consistency = ConsistencyModel::kPso;
  Init(pso);
  SimTime t = 0;
  t = Go(0, va_, AccessType::kRead, t).completion;
  t = Go(1, va_, AccessType::kRead, t).completion;
  auto w = Go(2, va_, AccessType::kWrite, t);
  const SimTime write_done = w.completion;
  // Same thread reads the same region immediately: must wait for the pending store.
  auto r = Go(2, va_, AccessType::kRead, t + w.latency);
  EXPECT_GE(t + w.latency + r.latency, write_done);
}

TEST_F(RackTest, TsoWritesBlockUntilComplete) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kRead, t).completion;
  t = Go(1, va_, AccessType::kRead, t).completion;
  auto w = Go(2, va_, AccessType::kWrite, t);
  EXPECT_EQ(t + w.latency, w.completion);  // TSO: thread waits out the whole transition.
}

// --- Directory capacity pressure (§7.2) ---------------------------------------------------

TEST_F(RackTest, CapacityEvictionForcesInvalidations) {
  RackConfig tiny = TestConfig();
  tiny.directory_slots = 8;
  Init(tiny);
  SimTime t = 0;
  // Touch 32 distinct 16 KB regions: far beyond 8 slots.
  for (int i = 0; i < 32; ++i) {
    auto r = Go(0, va_ + static_cast<uint64_t>(i) * 16 * 1024, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok()) << i;
    t = r.completion;
  }
  EXPECT_LE(rack_->directory().entry_count(), 8u);
  EXPECT_GT(rack_->stats().directory_capacity_evictions, 0u);
  // Evicted dirty regions flushed with no requested page: all false invalidations.
  EXPECT_GT(rack_->stats().false_invalidations, 0u);
}

// --- Reset path (§4.4) --------------------------------------------------------------------

TEST_F(RackTest, ResetDropsEntryAndCaches) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kWrite, t).completion;
  ASSERT_NE(rack_->directory().Lookup(va_), nullptr);
  ASSERT_TRUE(rack_->ResetAddress(va_, t).ok());
  EXPECT_EQ(rack_->directory().Lookup(va_), nullptr);
  EXPECT_EQ(rack_->compute_blade(0).cache().CountRange(PageNumber(va_), PageNumber(va_) + 4),
            0u);
  // Dirty data was preserved via flush.
  EXPECT_GE(rack_->stats().pages_flushed, 1u);
}

// Removing one half of a split region leaves its buddy covering half of the region a new
// entry would start at. The rack must create the half holding the address instead of
// failing every later access to the removed half with kExists.
TEST_F(RackTest, RemovedSplitHalfIsRecreated) {
  for (const bool remove_lower : {true, false}) {
    SCOPED_TRACE(remove_lower ? "lower half removed" : "upper half removed");
    tids_.clear();
    Init(TestConfig());
    SimTime t = Go(0, va_, AccessType::kWrite, 0).completion;
    const VirtAddr base = rack_->directory().Lookup(va_)->base;
    ASSERT_EQ(rack_->directory().Lookup(va_)->size(), 16u * 1024);
    ASSERT_TRUE(rack_->directory().Split(base).ok());
    const VirtAddr lower = base;
    const VirtAddr upper = base + 8 * 1024;
    t = Go(1, upper, AccessType::kWrite, t).completion;
    const VirtAddr removed = remove_lower ? lower : upper;
    const VirtAddr kept = remove_lower ? upper : lower;
    ASSERT_TRUE(rack_->ResetAddress(removed, t).ok());
    ASSERT_EQ(rack_->directory().Lookup(removed), nullptr);
    for (int blade = 0; blade < 4; ++blade) {
      for (const VirtAddr va : {removed, removed + kPageSize}) {
        const AccessResult r = Go(blade, va, AccessType::kRead, t);
        ASSERT_TRUE(r.status.ok()) << "blade " << blade << ": " << r.status.ToString();
        t = r.completion;
      }
    }
    const DirectoryEntry* recreated = rack_->directory().Lookup(removed);
    ASSERT_NE(recreated, nullptr);
    EXPECT_EQ(recreated->base, removed);
    EXPECT_EQ(recreated->size(), 8u * 1024);
    const DirectoryEntry* buddy = rack_->directory().Lookup(kept);
    ASSERT_NE(buddy, nullptr);
    EXPECT_EQ(buddy->base, kept);
    EXPECT_EQ(buddy->size(), 8u * 1024);
  }
}

TEST_F(RackTest, LossyFabricEventuallyResets) {
  RackConfig lossy = TestConfig();
  lossy.fault.reliability.loss_probability = 1.0;
  lossy.fault.reliability.max_retransmissions = 2;
  Init(lossy);
  // Every message-with-ACK is lost: even the cold fetch exhausts its retry budget, resets
  // the address (§4.4) and fails the access.
  auto r = Go(0, va_, AccessType::kRead, 0);
  EXPECT_EQ(r.status.code(), ErrorCode::kTimedOut);
  EXPECT_EQ(rack_->directory().Lookup(va_), nullptr);  // Reset removed the entry.
  EXPECT_GT(rack_->fault_plane().counters().resets_triggered, 0u);
  // Bounded failure, never a wedge: each retry fails after its summed timeouts and leaves
  // the directory clean for when connectivity returns (recovery after a *partial* outage —
  // one dead blade — is covered end to end in fault_injection_test.cc).
  auto again = Go(0, va_, AccessType::kRead, r.completion);
  EXPECT_EQ(again.status.code(), ErrorCode::kTimedOut);
  EXPECT_EQ(rack_->directory().Lookup(va_), nullptr);
}

// --- Eviction write-backs ------------------------------------------------------------------

TEST_F(RackTest, CacheEvictionWritesBackDirty) {
  RackConfig small = TestConfig();
  small.compute_cache_bytes = 8 * kPageSize;  // 8 frames.
  Init(small);
  SimTime t = 0;
  for (int i = 0; i < 16; ++i) {
    auto r = Go(0, va_ + static_cast<uint64_t>(i) * kPageSize, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion;
  }
  EXPECT_GT(rack_->stats().evict_writebacks, 0u);
  EXPECT_LE(rack_->compute_blade(0).cache().size(), 8u);
}

TEST_F(RackTest, EvictedDirtyPageRefetchesFromMemoryOneRtt) {
  RackConfig small = TestConfig();
  small.compute_cache_bytes = 2 * kPageSize;
  Init(small);
  SimTime t = 0;
  t = Go(0, va_, AccessType::kWrite, t).completion;
  // Push the dirty page out...
  t = Go(0, va_ + 64 * kPageSize, AccessType::kWrite, t).completion;
  t = Go(0, va_ + 128 * kPageSize, AccessType::kWrite, t).completion;
  // ...then fault it back in: still M-owned by blade 0, so a 1-RTT memory fetch.
  auto r = Go(0, va_, AccessType::kWrite, t);
  EXPECT_FALSE(r.triggered_invalidation);
  EXPECT_LE(ToMicros(r.latency), 9.5);
}

// --- Munmap teardown ------------------------------------------------------------------------

TEST_F(RackTest, MunmapRemovesCoherenceState) {
  SimTime t = 0;
  t = Go(0, va_, AccessType::kWrite, t).completion;
  t = Go(1, va_ + 32 * kPageSize, AccessType::kRead, t).completion;
  ASSERT_TRUE(rack_->Munmap(pid_, va_).ok());
  EXPECT_EQ(rack_->directory().Lookup(va_), nullptr);
  auto r = Go(0, va_, AccessType::kRead, t);
  EXPECT_EQ(r.status.code(), ErrorCode::kFault);  // Address space gone.
}

// --- Bounded splitting integration ----------------------------------------------------------

TEST_F(RackTest, EpochsFireOnTheDataPath) {
  SimTime t = 0;
  ASSERT_EQ(rack_->bounded_splitting().stats().epochs, 0u);
  (void)Go(0, va_, AccessType::kRead, 250 * kMillisecond);
  EXPECT_EQ(rack_->bounded_splitting().stats().epochs, 2u);
}

TEST_F(RackTest, ContendedRegionSplitsOverEpochs) {
  SimTime t = 0;
  // Two blades ping-pong writes to different pages of the same initial region, generating
  // false invalidations every handoff.
  for (int round = 0; round < 40; ++round) {
    t = Go(0, va_, AccessType::kWrite, t).completion;
    t = Go(1, va_ + kPageSize, AccessType::kWrite, t).completion;
    t += 10 * kMillisecond;  // Let epochs elapse.
  }
  // The 16 KB initial region must have split: the two hot pages now live in separate
  // regions, so the ping-pong no longer falsely invalidates the sibling page.
  const DirectoryEntry* e0 = rack_->directory().Lookup(va_);
  const DirectoryEntry* e1 = rack_->directory().Lookup(va_ + kPageSize);
  ASSERT_NE(e0, nullptr);
  ASSERT_NE(e1, nullptr);
  EXPECT_NE(e0->base, e1->base);
  EXPECT_GT(rack_->bounded_splitting().stats().splits, 0u);
}

// --- Match-action rule accounting ------------------------------------------------------------

TEST_F(RackTest, RuleCountIndependentOfFootprint) {
  const uint64_t before = rack_->MatchActionRules();
  auto big = rack_->Mmap(pid_, 64ull << 20, PermClass::kReadWrite);  // +64 MB.
  ASSERT_TRUE(big.ok());
  const uint64_t after = rack_->MatchActionRules();
  // One vma => at most one protection rule more; translation rules unchanged (§4.1-4.2).
  EXPECT_LE(after - before, 2u);
}

}  // namespace
}  // namespace mind
