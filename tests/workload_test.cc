// Tests for the workload generators and the replay engine: statistical structure of the
// generated traces (the properties the paper's evaluation discriminates on) and correct
// replay accounting. Parameterized over the four paper workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "src/baselines/fastswap.h"
#include "src/baselines/mind_system.h"
#include "src/core/access.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

double SharedWriteRate(const WorkloadTraces& traces) {
  uint64_t shared_writes = 0;
  uint64_t total = 0;
  for (const auto& t : traces.threads) {
    for (const auto& op : t.ops) {
      total++;
      if (op.segment == 0 && op.type == AccessType::kWrite) {
        shared_writes++;
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(shared_writes) / static_cast<double>(total);
}

double MetadataWriteRate(const WorkloadTraces& traces) {
  uint64_t md_writes = 0;
  uint64_t total = 0;
  for (const auto& t : traces.threads) {
    for (const auto& op : t.ops) {
      total++;
      if (op.segment == 1 && op.type == AccessType::kWrite) {
        md_writes++;
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(md_writes) / static_cast<double>(total);
}

TEST(Generators, DeterministicForSeed) {
  const auto a = GenerateTraces(TfSpec(2, 2, 1000));
  const auto b = GenerateTraces(TfSpec(2, 2, 1000));
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (size_t t = 0; t < a.threads.size(); ++t) {
    ASSERT_EQ(a.threads[t].ops.size(), b.threads[t].ops.size());
    for (size_t i = 0; i < a.threads[t].ops.size(); ++i) {
      ASSERT_EQ(a.threads[t].ops[i].page, b.threads[t].ops[i].page);
      ASSERT_EQ(a.threads[t].ops[i].type, b.threads[t].ops[i].type);
    }
  }
}

TEST(Generators, OpsStayInsideSegments) {
  const auto traces = GenerateTraces(GcSpec(4, 2, 2000));
  for (const auto& t : traces.threads) {
    for (const auto& op : t.ops) {
      ASSERT_LT(op.segment, traces.segments.size());
      ASSERT_LT(op.page, traces.segments[op.segment].pages);
    }
  }
}

TEST(Generators, GcWritesMoreSharedDataThanTf) {
  // §7.1: "GC writes ~2.5x more data in shared pages than TF".
  const double tf = SharedWriteRate(GenerateTraces(TfSpec(4, 2, 20000)));
  const double gc = SharedWriteRate(GenerateTraces(GcSpec(4, 2, 20000)));
  EXPECT_GT(gc, 1.8 * tf);
  EXPECT_LT(gc, 8.0 * tf);
}

TEST(Generators, MemcachedCHasNoSharedTableWritesButKeepsMetadataWrites) {
  const auto mc = GenerateTraces(MemcachedCSpec(4, 2, 20000));
  EXPECT_DOUBLE_EQ(SharedWriteRate(mc), 0.0);  // YCSB-C: 100% GETs.
  // The LRU-touch writes remain — the paper's explanation for M_C's poor scaling.
  EXPECT_GT(MetadataWriteRate(mc), 0.2);
}

TEST(Generators, MemcachedAHasBothWriteKinds) {
  const auto ma = GenerateTraces(MemcachedASpec(4, 2, 20000));
  // ~0.95 * 0.5 of primary ops are SETs, diluted by the extra LRU-touch ops in the stream.
  EXPECT_GT(SharedWriteRate(ma), 0.2);
  EXPECT_GT(MetadataWriteRate(ma), 0.2);
}

TEST(Generators, KvsPartitioningIsLocal) {
  const int blades = 4;
  auto spec = NativeKvsSpec(blades, 2, 0.5, 20000);
  const auto traces = GenerateTraces(spec);
  const uint64_t partition = spec.shared_pages / blades;
  uint64_t local = 0;
  uint64_t shared_total = 0;
  for (size_t t = 0; t < traces.threads.size(); ++t) {
    const uint64_t blade = t % blades;
    for (const auto& op : traces.threads[t].ops) {
      if (op.segment != 0) {
        continue;
      }
      ++shared_total;
      if (op.page / partition == blade) {
        ++local;
      }
    }
  }
  ASSERT_GT(shared_total, 0u);
  const double locality = static_cast<double>(local) / static_cast<double>(shared_total);
  EXPECT_GT(locality, 0.8);  // ~85% + the uniform spill that lands locally by chance.
}

TEST(Generators, MicroRespectsReadRatio) {
  for (double read_ratio : {0.0, 0.5, 1.0}) {
    const auto traces = GenerateTraces(MicroSpec(4, read_ratio, 0.5, 40000, 10000));
    uint64_t writes = 0;
    uint64_t total = 0;
    for (const auto& t : traces.threads) {
      for (const auto& op : t.ops) {
        ++total;
        writes += op.type == AccessType::kWrite ? 1 : 0;
      }
    }
    EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(total), 1.0 - read_ratio,
                0.02);
  }
}

TEST(Generators, MicroRespectsSharingRatio) {
  for (double sharing : {0.25, 0.75}) {
    const auto traces = GenerateTraces(MicroSpec(4, 0.5, sharing, 40000, 10000));
    uint64_t shared = 0;
    uint64_t total = 0;
    for (const auto& t : traces.threads) {
      for (const auto& op : t.ops) {
        ++total;
        shared += op.segment == 0 ? 1 : 0;
      }
    }
    EXPECT_NEAR(static_cast<double>(shared) / static_cast<double>(total), sharing, 0.03);
  }
}

TEST(Generators, StridedPatternStepsByTheConfiguredStride) {
  WorkloadSpec spec;
  spec.name = "strided";
  spec.num_blades = 2;
  spec.threads_per_blade = 1;
  spec.private_pages_per_thread = 997;  // Prime: coprime with any stride, full coverage.
  spec.private_pattern = Pattern::kStrided;
  spec.stride_pages = 7;
  spec.accesses_per_thread = 3000;
  const auto traces = GenerateTraces(spec);
  for (size_t t = 0; t < traces.threads.size(); ++t) {
    const auto& ops = traces.threads[t].ops;
    ASSERT_GT(ops.size(), 100u);
    std::set<uint64_t> distinct;
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_EQ(ops[i].segment, 2 + t);  // Private-only spec.
      distinct.insert(ops[i].page);
      if (i > 0) {
        // Every consecutive delta is exactly the stride, mod the segment size.
        const uint64_t delta =
            (ops[i].page + spec.private_pages_per_thread - ops[i - 1].page) %
            spec.private_pages_per_thread;
        ASSERT_EQ(delta, spec.stride_pages) << "thread " << t << " op " << i;
      }
    }
    // A page-coprime stride visits the whole segment before repeating.
    EXPECT_EQ(distinct.size(), spec.private_pages_per_thread);
  }
}

TEST(Generators, PointerChaseIsAPermutedCycleWithoutAStride) {
  WorkloadSpec spec;
  spec.name = "chase";
  spec.num_blades = 1;
  spec.threads_per_blade = 1;
  spec.private_pages_per_thread = 512;
  spec.private_pattern = Pattern::kPointerChase;
  spec.accesses_per_thread = 1024;  // Two full laps of the cycle.
  const auto traces = GenerateTraces(spec);
  const auto& ops = traces.threads[0].ops;
  ASSERT_EQ(ops.size(), 1024u);
  // One lap visits every page exactly once (Sattolo builds a single cycle)...
  std::set<uint64_t> lap;
  for (size_t i = 0; i < 512; ++i) {
    lap.insert(ops[i].page);
  }
  EXPECT_EQ(lap.size(), 512u);
  // ...and the second lap replays the identical order (deterministic chase).
  for (size_t i = 0; i < 512; ++i) {
    ASSERT_EQ(ops[i].page, ops[i + 512].page);
  }
  // Distribution shape: no consecutive delta reaches a majority — the property that
  // makes the workload prefetch-hostile (the stride detector must sit out).
  std::map<int64_t, size_t> deltas;
  for (size_t i = 1; i < 512; ++i) {
    ++deltas[static_cast<int64_t>(ops[i].page - ops[i - 1].page)];
  }
  for (const auto& [delta, count] : deltas) {
    EXPECT_LT(count, 256u) << "delta " << delta << " has a majority";
  }
}

TEST(Generators, PointerChaseIsDeterministicForSeed) {
  WorkloadSpec spec;
  spec.num_blades = 1;
  spec.threads_per_blade = 2;
  spec.private_pages_per_thread = 256;
  spec.private_pattern = Pattern::kPointerChase;
  spec.accesses_per_thread = 500;
  const auto a = GenerateTraces(spec);
  const auto b = GenerateTraces(spec);
  for (size_t t = 0; t < a.threads.size(); ++t) {
    ASSERT_EQ(a.threads[t].ops.size(), b.threads[t].ops.size());
    for (size_t i = 0; i < a.threads[t].ops.size(); ++i) {
      ASSERT_EQ(a.threads[t].ops[i].page, b.threads[t].ops[i].page);
    }
  }
  // Different threads chase different permutations (per-thread seeding).
  bool differs = false;
  for (size_t i = 0; i < 100; ++i) {
    differs |= a.threads[0].ops[i].page != a.threads[1].ops[i].page;
  }
  EXPECT_TRUE(differs);
}

TEST(Generators, MicroFootprintMatchesTotalPages) {
  const auto traces = GenerateTraces(MicroSpec(8, 0.5, 0.5, 400'000, 100));
  // Shared + per-thread private partitions must roughly reassemble the working set.
  EXPECT_NEAR(static_cast<double>(traces.FootprintPages()), 400'000.0, 4000.0);
}

// --- Packed op records --------------------------------------------------------------------

TEST(PackedOps, TraceOpHoldsItsWidestFields) {
  for (const AccessType type : {AccessType::kRead, AccessType::kWrite}) {
    const TraceOp op{65535, (1ull << 40) - 1, type};
    EXPECT_EQ(op.segment, 65535u);
    EXPECT_EQ(op.page, (1ull << 40) - 1);
    EXPECT_EQ(op.type, type);
  }
  const TraceOp zero{};
  EXPECT_EQ(zero.segment, 0u);
  EXPECT_EQ(zero.page, 0u);
  EXPECT_EQ(zero.type, AccessType::kRead);
}

TEST(PackedOps, LocalOpHoldsItsWidestVa) {
  const VirtAddr top = (1ull << 56) - kPageSize;
  for (const AccessType type : {AccessType::kRead, AccessType::kWrite}) {
    const LocalOp op{top, type};
    EXPECT_EQ(op.va, top);
    EXPECT_EQ(op.type, type);
  }
  const LocalOp zero{};
  EXPECT_EQ(zero.va, 0u);
  EXPECT_EQ(zero.type, AccessType::kRead);
}

// --- Replay engine ------------------------------------------------------------------------

TEST(Replay, RunsToCompletionAndCounts) {
  RackConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  cfg.memory_blade_capacity = 1ull << 30;
  MindSystem sys(cfg);
  auto spec = MicroSpec(2, 0.5, 0.5, 2000, 500);
  const auto traces = GenerateTraces(spec);
  ReplayEngine engine(&sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  const auto report = engine.Run();
  EXPECT_EQ(report.total_ops, traces.TotalOps());
  EXPECT_GT(report.makespan, 0u);
  EXPECT_GT(report.throughput_mops, 0.0);
  EXPECT_EQ(report.counters.total_accesses, report.total_ops);
  EXPECT_GT(report.counters.remote_accesses, 0u);
  EXPECT_EQ(report.latency_histogram.count(), report.total_ops);
}

TEST(Replay, SetupTwiceRejected) {
  FastSwapConfig cfg;
  FastSwapSystem sys(cfg);
  auto spec = MicroSpec(1, 1.0, 0.0, 1000, 100);
  const auto traces = GenerateTraces(spec);
  ReplayEngine engine(&sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  EXPECT_FALSE(engine.Setup().ok());
}

TEST(Replay, SetupRejectsMalformedTraces) {
  RackConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 1;
  cfg.memory_blade_capacity = 1ull << 30;
  WorkloadTraces valid;
  valid.name = "tiny";
  valid.num_blades = 2;
  valid.segments = {SegmentSpec{/*pages=*/4}, SegmentSpec{/*pages=*/8}};
  valid.threads = {ThreadTrace{{{0, 3, AccessType::kRead}, {1, 7, AccessType::kWrite}}},
                   ThreadTrace{{{1, 0, AccessType::kRead}}}};

  WorkloadTraces no_blades = valid;
  no_blades.num_blades = 0;
  WorkloadTraces bad_segment = valid;
  bad_segment.threads[1].ops.push_back({2, 0, AccessType::kRead});
  WorkloadTraces bad_page = valid;
  bad_page.threads[0].ops.push_back({0, 4, AccessType::kWrite});
  // Beyond what TraceOp's packed fields address: a segment past 2^40 pages, and more
  // than 2^16 segments. Neither needs an op that reaches the excess.
  WorkloadTraces huge_segment = valid;
  huge_segment.segments.push_back(SegmentSpec{(1ull << 40) + 1});
  WorkloadTraces too_many_segments = valid;
  too_many_segments.segments.resize((1ull << 16) + 1, SegmentSpec{1});

  MindSystem fresh(cfg);
  ReplayEngine reference(&fresh, &valid);
  ASSERT_TRUE(reference.Setup().ok());

  MindSystem sys(cfg);
  for (const WorkloadTraces* bad :
       {&no_blades, &bad_segment, &bad_page, &huge_segment, &too_many_segments}) {
    ReplayEngine engine(&sys, bad);
    EXPECT_EQ(engine.Setup().code(), ErrorCode::kInvalidArgument);
  }
  // The rejected Setups allocated nothing: the valid trace lands where it lands on a
  // fresh system.
  ReplayEngine engine(&sys, &valid);
  ASSERT_TRUE(engine.Setup().ok());
  EXPECT_EQ(engine.AddressOf(0, 0), reference.AddressOf(0, 0));
  EXPECT_EQ(engine.AddressOf(1, 7), reference.AddressOf(1, 7));
  EXPECT_EQ(engine.Run().total_ops, valid.TotalOps());
}

// Parameterized smoke replay over every paper workload preset on MIND.
class WorkloadReplayTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadReplayTest, ReplaysOnMind) {
  const std::string which = GetParam();
  WorkloadSpec spec;
  if (which == "TF") {
    spec = TfSpec(2, 2, 2000);
  } else if (which == "GC") {
    spec = GcSpec(2, 2, 2000);
  } else if (which == "MA") {
    spec = MemcachedASpec(2, 2, 2000);
  } else if (which == "MC") {
    spec = MemcachedCSpec(2, 2, 2000);
  } else {
    spec = NativeKvsSpec(2, 2, 0.5, 2000);
  }
  RackConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  cfg.memory_blade_capacity = 4ull << 30;
  cfg.compute_cache_bytes = 64ull << 20;
  MindSystem sys(cfg);
  const auto traces = GenerateTraces(spec);
  ReplayEngine engine(&sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  const auto report = engine.Run();
  EXPECT_EQ(report.total_ops, traces.TotalOps());
  EXPECT_GT(report.throughput_mops, 0.0);
  // Shared writes (table or metadata) must exercise the coherence machinery on all
  // workloads except pure private ones.
  if (which != "TF") {
    EXPECT_GT(report.counters.invalidations, 0u) << which;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, WorkloadReplayTest,
                         ::testing::Values("TF", "GC", "MA", "MC", "KVS"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace mind
