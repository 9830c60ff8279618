// Fuzz test: random create/split/merge/remove sequences against the cache directory,
// checked after every step against structural invariants and a reference interval model.
// Parameterized over seeds and SRAM capacities.
#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/dataplane/directory.h"

namespace mind {
namespace {

struct FuzzCase {
  const char* name;
  uint64_t seed;
  uint32_t slots;
  int steps;
};

class DirectoryFuzzTest : public ::testing::TestWithParam<FuzzCase> {
 protected:
  static constexpr VirtAddr kSpace = 1ull << 24;  // 16 MB playground.

  // Reference model: base -> size. Kept in lockstep with the directory.
  std::map<VirtAddr, uint64_t> reference_;

  void CheckAgainstReference(CacheDirectory& dir) {
    ASSERT_EQ(dir.entry_count(), reference_.size());
    // No overlap and exact geometry for every reference interval.
    VirtAddr prev_end = 0;
    for (const auto& [base, size] : reference_) {
      ASSERT_GE(base, prev_end) << "reference overlap";
      prev_end = base + size;
      DirectoryEntry* e = dir.Lookup(base);
      ASSERT_NE(e, nullptr);
      ASSERT_EQ(e->base, base);
      ASSERT_EQ(e->size(), size);
      ASSERT_TRUE(IsAligned(base, size));
      // Last byte maps to the same entry; one past maps elsewhere (or nowhere).
      ASSERT_EQ(dir.Lookup(base + size - 1), e);
      DirectoryEntry* next = dir.Lookup(base + size);
      ASSERT_TRUE(next == nullptr || next->base != base);
    }
  }
};

TEST_P(DirectoryFuzzTest, RandomOpsKeepStructureConsistent) {
  const FuzzCase& fc = GetParam();
  CacheDirectory dir(fc.slots);
  Rng rng(fc.seed);

  for (int step = 0; step < fc.steps; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.4) {
      // Create a random aligned region (4 KB .. 256 KB).
      const uint32_t log2 = 12 + static_cast<uint32_t>(rng.NextBelow(7));
      const uint64_t size = uint64_t{1} << log2;
      const VirtAddr base = AlignDown(rng.NextBelow(kSpace - size), size);
      auto created = dir.Create(base, log2);
      // Determine expected outcome from the reference model.
      bool overlaps = false;
      for (const auto& [rbase, rsize] : reference_) {
        if (rbase < base + size && base < rbase + rsize) {
          overlaps = true;
          break;
        }
      }
      if (overlaps) {
        ASSERT_FALSE(created.ok());
        ASSERT_EQ(created.status().code(), ErrorCode::kExists);
      } else if (reference_.size() >= fc.slots) {
        ASSERT_FALSE(created.ok());
        ASSERT_EQ(created.status().code(), ErrorCode::kResourceExhausted);
      } else {
        ASSERT_TRUE(created.ok());
        reference_[base] = size;
      }
    } else if (roll < 0.6 && !reference_.empty()) {
      // Split a random existing region.
      auto it = reference_.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(reference_.size())));
      const VirtAddr base = it->first;
      const uint64_t size = it->second;
      const Status s = dir.Split(base);
      if (size <= kPageSize || reference_.size() >= fc.slots) {
        ASSERT_FALSE(s.ok());
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        reference_[base] = size / 2;
        reference_[base + size / 2] = size / 2;
      }
    } else if (roll < 0.8 && !reference_.empty()) {
      // Merge a random region with its buddy (may legitimately fail).
      auto it = reference_.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(reference_.size())));
      const VirtAddr base = it->first;
      const uint64_t size = it->second;
      const VirtAddr buddy = base ^ size;
      const bool mergeable = reference_.count(buddy) != 0 && reference_[buddy] == size &&
                             size < (1ull << 21);
      const Status s = dir.MergeWithBuddy(base, 21);
      ASSERT_EQ(s.ok(), mergeable) << s.ToString();
      if (mergeable) {
        const VirtAddr lower = std::min(base, buddy);
        reference_.erase(std::max(base, buddy));
        reference_[lower] = size * 2;
      }
    } else if (!reference_.empty()) {
      // Remove a random region.
      auto it = reference_.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(reference_.size())));
      ASSERT_TRUE(dir.Remove(it->first).ok());
      reference_.erase(it);
    }

    if (step % 32 == 0) {
      CheckAgainstReference(dir);
    }
  }
  CheckAgainstReference(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DirectoryFuzzTest,
    ::testing::Values(FuzzCase{"roomy_1", 1, 4096, 2000}, FuzzCase{"roomy_2", 2, 4096, 2000},
                      FuzzCase{"tight_1", 3, 48, 2000}, FuzzCase{"tight_2", 4, 48, 2000},
                      FuzzCase{"tiny", 5, 8, 1500}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) { return info.param.name; });

}  // namespace
}  // namespace mind
