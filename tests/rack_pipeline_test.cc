// Safety tests for the Rack access path under repeated same-page hits: every event that
// could change the answer — mprotect, munmap, domain revocation, migration, invalidation
// waves from other blades, and region split/merge — must be seen by the next access, so a
// warmed hit path (DramCache::Lookup with domain re-validation) can never replay a stale
// verdict. Each test first *warms* the page with repeated same-page hits, then mutates,
// then asserts the post-mutation behavior. (Case names and messages that say "memo" date
// from a per-thread pipeline memo that Access no longer has.)
#include <gtest/gtest.h>

#include "src/core/mind.h"

namespace mind {
namespace {

RackConfig Config() {
  RackConfig c;
  c.num_compute_blades = 2;
  c.num_memory_blades = 1;
  c.memory_blade_capacity = 1ull << 30;
  c.compute_cache_bytes = 16ull << 20;
  c.store_data = true;
  return c;
}

class RackPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rack_ = std::make_unique<Rack>(Config());
    pid_ = *rack_->Exec("pipeline");
    pdid_ = *rack_->controller().PdidOf(pid_);
    tid0_ = rack_->SpawnThread(pid_, 0)->tid;
    tid1_ = rack_->SpawnThread(pid_, 1)->tid;
    va_ = *rack_->Mmap(pid_, 1 << 20, PermClass::kReadWrite);
  }

  AccessResult Go(ThreadId tid, ComputeBladeId blade, VirtAddr va, AccessType t,
                  SimTime now) {
    return rack_->Access(AccessRequest{tid, blade, pdid_, va, t, now});
  }

  // Warms the page: the first access faults it in, the later same-page accesses hit.
  SimTime Warm(ThreadId tid, ComputeBladeId blade, AccessType t, SimTime now) {
    SimTime done = now;
    for (int i = 0; i < 3; ++i) {
      auto r = Go(tid, blade, va_, t, done);
      EXPECT_TRUE(r.status.ok());
      done = r.completion;
    }
    return done;
  }

  std::unique_ptr<Rack> rack_;
  ProcessId pid_ = kInvalidProcess;
  ProtDomainId pdid_ = 0;
  ThreadId tid0_ = 0;
  ThreadId tid1_ = 0;
  VirtAddr va_ = 0;
};

TEST_F(RackPipelineTest, WarmedPathServesLocalHits) {
  SimTime t = Go(tid0_, 0, va_, AccessType::kWrite, 0).completion;
  for (int i = 0; i < 8; ++i) {
    auto r = Go(tid0_, 0, va_, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.local_hit) << "iteration " << i;
    t = r.completion;
  }
  EXPECT_EQ(rack_->stats().local_hits, 8u);
}

TEST_F(RackPipelineTest, MprotectInvalidatesWarmedWritePath) {
  SimTime t = Warm(tid0_, 0, AccessType::kWrite, 0);
  ASSERT_TRUE(rack_->Mprotect(pid_, va_, kPageSize, PermClass::kReadOnly).ok());
  // The warmed write verdict must not be replayed after the downgrade.
  auto w = Go(tid0_, 0, va_, AccessType::kWrite, t);
  EXPECT_EQ(w.status.code(), ErrorCode::kPermissionDenied);
  auto r = Go(tid0_, 0, va_, AccessType::kRead, w.completion);
  EXPECT_TRUE(r.status.ok());
}

TEST_F(RackPipelineTest, MunmapInvalidatesWarmedPath) {
  SimTime t = Warm(tid0_, 0, AccessType::kWrite, 0);
  ASSERT_TRUE(rack_->Munmap(pid_, va_).ok());
  auto r = Go(tid0_, 0, va_, AccessType::kRead, t);
  EXPECT_EQ(r.status.code(), ErrorCode::kFault) << "stale memo served an unmapped page";
}

TEST_F(RackPipelineTest, RevokeInvalidatesOtherDomainsWarmedPath) {
  const ProtDomainId session = 4242;
  ASSERT_TRUE(rack_->GrantToDomain(pid_, session, va_, kPageSize, PermClass::kReadOnly).ok());
  // Warm the session's read path on blade 0 (cross-domain frame: pdid_ faulted it in).
  SimTime t = Go(tid0_, 0, va_, AccessType::kRead, 0).completion;
  for (int i = 0; i < 3; ++i) {
    auto r = rack_->Access(AccessRequest{tid1_, 0, session, va_, AccessType::kRead, t});
    ASSERT_TRUE(r.status.ok());
    t = r.completion;
  }
  ASSERT_TRUE(rack_->RevokeFromDomain(session, va_, kPageSize).ok());
  auto r = rack_->Access(AccessRequest{tid1_, 0, session, va_, AccessType::kRead, t});
  EXPECT_EQ(r.status.code(), ErrorCode::kPermissionDenied)
      << "revoked domain rode a warmed pipeline slot";
  // The owner domain still works.
  EXPECT_TRUE(Go(tid0_, 0, va_, AccessType::kRead, r.completion).status.ok());
}

TEST_F(RackPipelineTest, MigrationInvalidatesWarmedTranslationAndFrames) {
  SimTime t = Warm(tid0_, 0, AccessType::kWrite, 0);
  // Write some bytes so migration has real content to carry.
  auto wrote = rack_->WriteBytes(tid0_, va_, "mind", 4, t);
  ASSERT_TRUE(wrote.ok());
  auto migrated = rack_->MigrateRange(va_, 14, /*dst=*/0, *wrote);
  ASSERT_TRUE(migrated.ok());
  // Post-migration access must re-fault (cached copies were shot down) and still see the
  // data at the new home — no stale frame pointer, no stale translation.
  auto r = Go(tid0_, 0, va_, AccessType::kRead, *migrated);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.local_hit) << "migration left a warmed local hit behind";
  char buf[4] = {};
  ASSERT_TRUE(rack_->ReadBytes(tid0_, va_, buf, 4, r.completion).ok());
  EXPECT_EQ(std::string(buf, 4), "mind");
}

TEST_F(RackPipelineTest, RemoteInvalidationWaveInvalidatesWarmedPath) {
  // Blade 0 warms an owned (M-state) page.
  SimTime t = Warm(tid0_, 0, AccessType::kWrite, 0);
  // Blade 1 writes the same page: the invalidation wave strips blade 0's copy.
  auto other = Go(tid1_, 1, va_, AccessType::kWrite, t);
  ASSERT_TRUE(other.status.ok());
  EXPECT_TRUE(other.triggered_invalidation);
  // Blade 0's next access must miss (its frame is gone) and trigger coherence again —
  // a stale fast-path hit here would be a silent consistency violation.
  auto back = Go(tid0_, 0, va_, AccessType::kWrite, other.completion);
  ASSERT_TRUE(back.status.ok());
  EXPECT_FALSE(back.local_hit) << "invalidated frame served from the pipeline memo";
  EXPECT_TRUE(back.triggered_invalidation);
}

TEST_F(RackPipelineTest, WarmedHitsKeepLruRecency) {
  // Fill a tiny cache so LRU order is observable, with the warmed page kept hot via the
  // fast path only: Touch must keep it resident while colder pages are evicted.
  RackConfig cfg = Config();
  cfg.compute_cache_bytes = 4 * kPageSize;  // 4 frames.
  Rack rack(cfg);
  const ProcessId pid = *rack.Exec("lru");
  const ProtDomainId pdid = *rack.controller().PdidOf(pid);
  const ThreadId tid = rack.SpawnThread(pid, 0)->tid;
  const VirtAddr va = *rack.Mmap(pid, 1 << 20, PermClass::kReadWrite);

  SimTime t = rack.Access({tid, 0, pdid, va, AccessType::kWrite, 0}).completion;
  // Interleave warmed hits on page 0 with faults on fresh pages. Page 0 must survive all
  // evictions because every fast-path hit refreshes its recency.
  for (int i = 1; i <= 12; ++i) {
    t = rack.Access({tid, 0, pdid, va, AccessType::kWrite, t}).completion;  // Warm hit.
    t = rack.Access({tid, 0, pdid, va + static_cast<uint64_t>(i) * kPageSize,
                     AccessType::kRead, t})
            .completion;  // Cold fault, may evict.
  }
  auto final_hit = rack.Access({tid, 0, pdid, va, AccessType::kWrite, t});
  EXPECT_TRUE(final_hit.local_hit) << "fast-path hits failed to refresh LRU recency";
}

TEST_F(RackPipelineTest, SplitAndMergeInvalidateMemoizedDirectoryEntry) {
  SimTime t = Warm(tid0_, 0, AccessType::kWrite, 0);
  // Split the region under the warmed entry, then access: the memoized DirectoryEntry*
  // must not be reused across the split (its geometry changed).
  DirectoryEntry* entry = rack_->directory().Lookup(va_);
  ASSERT_NE(entry, nullptr);
  const VirtAddr base = entry->base;
  ASSERT_TRUE(rack_->directory().Split(base).ok());
  auto r = Go(tid0_, 0, va_, AccessType::kWrite, t);
  ASSERT_TRUE(r.status.ok());
  DirectoryEntry* after = rack_->directory().Lookup(va_);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->size_log2, entry->size_log2);  // Still the split-size child.
  ASSERT_TRUE(rack_->directory().MergeWithBuddy(base, 21).ok());
  EXPECT_TRUE(Go(tid0_, 0, va_, AccessType::kWrite, r.completion).status.ok());
}

}  // namespace
}  // namespace mind
