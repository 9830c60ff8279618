// Unit tests for src/common: types, bit ops, RNG/zipfian, histogram, fairness index,
// table printing and the parallel-phase guard.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/histogram.h"
#include "src/common/phase_guard.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table_printer.h"
#include "src/common/types.h"

namespace mind {
namespace {

TEST(Types, PageArithmetic) {
  EXPECT_EQ(PageBase(0x1234), 0x1000u);
  EXPECT_EQ(PageBase(0x1000), 0x1000u);
  EXPECT_EQ(PageNumber(0x2fff), 2u);
  EXPECT_EQ(PageToAddr(3), 0x3000u);
  EXPECT_EQ(PageToAddr(PageNumber(0xabcd000)), 0xabcd000u);
}

TEST(Types, PermClassSemantics) {
  EXPECT_FALSE(Permits(PermClass::kNone, AccessType::kRead));
  EXPECT_FALSE(Permits(PermClass::kNone, AccessType::kWrite));
  EXPECT_TRUE(Permits(PermClass::kReadOnly, AccessType::kRead));
  EXPECT_FALSE(Permits(PermClass::kReadOnly, AccessType::kWrite));
  EXPECT_TRUE(Permits(PermClass::kReadWrite, AccessType::kRead));
  EXPECT_TRUE(Permits(PermClass::kReadWrite, AccessType::kWrite));
}

TEST(Types, BladeBitIsDistinct) {
  for (int i = 0; i < kMaxComputeBlades; ++i) {
    for (int j = i + 1; j < kMaxComputeBlades; ++j) {
      EXPECT_NE(BladeBit(static_cast<ComputeBladeId>(i)),
                BladeBit(static_cast<ComputeBladeId>(j)));
    }
  }
}

TEST(BitOps, PowerOfTwoPredicates) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(4097));
}

TEST(BitOps, Log2RoundTrips) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(4096), 12u);
  EXPECT_EQ(Log2Floor(4097), 12u);
  EXPECT_EQ(Log2Ceil(4096), 12u);
  EXPECT_EQ(Log2Ceil(4097), 13u);
  EXPECT_EQ(Log2Ceil(1), 0u);
}

TEST(BitOps, Rounding) {
  EXPECT_EQ(RoundUpPowerOfTwo(4097), 8192u);
  EXPECT_EQ(RoundUpPowerOfTwo(4096), 4096u);
  EXPECT_EQ(RoundDownPowerOfTwo(4097), 4096u);
  EXPECT_EQ(AlignUp(5, 4), 8u);
  EXPECT_EQ(AlignDown(5, 4), 4u);
  EXPECT_TRUE(IsAligned(8192, 4096));
  EXPECT_FALSE(IsAligned(8193, 4096));
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BoundedDrawsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(99);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Zipfian, SkewsTowardLowIndices) {
  Rng rng(5);
  ZipfianGenerator zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank-0 must dominate rank-500 by a wide margin under theta=0.99.
  EXPECT_GT(counts[0], counts[500] * 10);
  // And the head (top 10%) should hold the majority of mass.
  int head = 0;
  for (int i = 0; i < 100; ++i) {
    head += counts[i];
  }
  EXPECT_GT(head, 50000);
}

TEST(Zipfian, UniformWhenThetaZero) {
  Rng rng(5);
  ZipfianGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    counts[zipf.Next(rng)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 1500);
  }
}

TEST(Histogram, CountsAndMean) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
}

TEST(Histogram, PercentilesApproximate) {
  Histogram h;
  for (uint64_t v = 0; v < 10000; ++v) {
    h.Record(v);
  }
  // Log-bucketing gives < ~2% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 5000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 9900.0, 300.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), 30u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(JainIndex, PerfectBalance) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({100, 100, 100, 100}), 1.0);
}

TEST(JainIndex, WorstCase) {
  // All load on one of n entities => index = 1/n.
  EXPECT_NEAR(JainFairnessIndex({400, 0, 0, 0}), 0.25, 1e-9);
}

TEST(JainIndex, EmptyAndZeroAreFair) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0, 0}), 1.0);
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s(ErrorCode::kNoMemory, "boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNoMemory);
  EXPECT_EQ(s.ToString(), "no-memory: boom");
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status(ErrorCode::kNotFound));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kNotFound);
}

TEST(TablePrinter, FullWidthCellIsFollowedBySpace) {
  const TablePrinter table({"configuration!", "mops"}, 14);
  testing::internal::CaptureStdout();
  table.PrintHeader();
  table.PrintRow(std::string("sharded-1shard"), 11.9);  // Fills its 14-wide column.
  table.PrintRow(std::string("one-shard"), 2.5);        // Narrower: padded as before.
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out, "configuration! mops          \n" + std::string(28, '-') +
                     "\n"
                     "sharded-1shard 11.9          \n"
                     "one-shard     2.5           \n");
}

// The Rng entry assertion is the dynamic half of the determinism contract. Builds with
// NDEBUG compile it out, so this test also shows whether a build has assertions live.
TEST(PhaseGuardDeathTest, RngDrawInParallelPhaseDies) {
#ifdef NDEBUG
  GTEST_SKIP() << "assertions are compiled out (NDEBUG)";
#else
  Rng rng(1);
  EXPECT_DEATH(
      {
        const ParallelPhaseScope in_phase;
        (void)rng.Next();
      },
      "serialized-path primitive");
#endif
}

}  // namespace
}  // namespace mind
