// Replay conformance: the engine-independent per-op oracle and the one report comparator.
//
// PerOpLoop replays traces with a loop that shares no code with ReplayEngine: the same
// allocations and thread placement as ReplayEngine::Setup, then one MemorySystem::Access
// per op in global (clock, thread index) order, then the trailing AdvanceTo. Channel
// replay must match it bit for bit, so a fault in code every engine run shares (the
// drain loop, the clock advance, the trailing AdvanceTo, the report arithmetic) fails
// here, where comparing the engine with itself could not.
//
// ExpectReportsIdentical compares every ReplayReport field, and the semantic byte stream
// when both runs were traced. Every test binary that includes this header carries the
// ctest label `conformance` (CMakeLists.txt).
#ifndef MIND_TESTS_REPLAY_CONFORMANCE_H_
#define MIND_TESTS_REPLAY_CONFORMANCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/baselines/memory_system.h"
#include "src/obs/trace_scope.h"
#include "src/workload/replay.h"
#include "src/workload/trace.h"

namespace mind {

using SystemFactory = std::function<std::unique_ptr<MemorySystem>()>;

// Replays `traces` on `sys`, one Access per op, and reports the run as ReplayEngine::Run
// does. With `scope`, the system's semantic events go to scope->control() during the run,
// and the scope is finalized before returning. `sampler(now)` runs before the first op
// whose start clock reaches each multiple of `sample_interval`, at that op's clock; an
// interval of 0 never samples.
inline ReplayReport PerOpLoop(MemorySystem* sys, const WorkloadTraces& traces,
                              TraceScope* scope = nullptr,
                              const ReplayEngine::Sampler& sampler = nullptr,
                              SimTime sample_interval = 10 * kMillisecond) {
  constexpr uint64_t kChunk = ReplayEngine::kChunkPages;
  std::vector<std::vector<VirtAddr>> chunk_bases(traces.segments.size());
  for (size_t s = 0; s < traces.segments.size(); ++s) {
    const uint64_t pages = traces.segments[s].pages;
    for (uint64_t first = 0; first < pages; first += kChunk) {
      auto base = sys->Alloc(std::min(kChunk, pages - first) * kPageSize);
      EXPECT_TRUE(base.ok());
      chunk_bases[s].push_back(*base);
    }
  }
  const size_t n = traces.threads.size();
  const auto blades =
      static_cast<size_t>(std::min(traces.num_blades, sys->num_compute_blades()));
  std::vector<ThreadId> tids(n);
  std::vector<ComputeBladeId> thread_blade(n);
  for (size_t t = 0; t < n; ++t) {
    thread_blade[t] = static_cast<ComputeBladeId>(t % blades);
    auto tid = sys->RegisterThread(thread_blade[t]);
    EXPECT_TRUE(tid.ok());
    tids[t] = *tid;
  }

  if (scope != nullptr) {
    (void)sys->SetTraceSink(scope->control());
  }
  const SystemCounters before = sys->counters();
  const PrefetchStats prefetch_before = sys->prefetch_stats();
  const FaultCounters fault_before = sys->fault_counters();
  std::vector<SimTime> clock(n, 0);
  std::vector<size_t> next(n, 0);
  SimTime max_start = 0;
  SimTime next_sample = sample_interval;
  uint64_t latency_sum = 0;
  ReplayReport report;
  for (;;) {
    size_t pick = n;
    for (size_t t = 0; t < n; ++t) {
      if (next[t] < traces.threads[t].ops.size() && (pick == n || clock[t] < clock[pick])) {
        pick = t;
      }
    }
    if (pick == n) {
      break;
    }
    if (sampler != nullptr && sample_interval != 0 && clock[pick] >= next_sample) {
      sampler(clock[pick]);
      next_sample = (clock[pick] / sample_interval + 1) * sample_interval;
    }
    const TraceOp& op = traces.threads[pick].ops[next[pick]++];
    const VirtAddr va =
        chunk_bases[op.segment][op.page / kChunk] + PageToAddr(op.page % kChunk);
    const AccessResult r = sys->Access(tids[pick], thread_blade[pick], va, op.type, clock[pick]);
    max_start = std::max(max_start, clock[pick]);
    clock[pick] += r.latency + traces.think_time;
    report.makespan = std::max(report.makespan, clock[pick]);
    report.latency_histogram.Record(r.latency);
    latency_sum += r.latency;
    ++report.total_ops;
  }
  if (report.total_ops > 0) {
    sys->AdvanceTo(max_start);
  }

  report.system = sys->name();
  report.workload = traces.name;
  report.counters = sys->counters().DeltaSince(before);
  report.prefetch = sys->prefetch_stats().DeltaSince(prefetch_before);
  report.fault = sys->fault_counters().DeltaSince(fault_before);
  if (report.makespan > 0) {
    report.throughput_mops =
        static_cast<double>(report.total_ops) / (ToSeconds(report.makespan) * 1e6);
  }
  if (report.total_ops > 0) {
    report.avg_latency_us = ToMicros(latency_sum) / static_cast<double>(report.total_ops);
  }
  if (scope != nullptr) {
    (void)sys->SetTraceSink(nullptr);
    scope->Finalize();
  }
  return report;
}

// Expects `got` to equal `want` in every report field, and, when the runs were traced,
// in the semantic byte stream.
inline void ExpectReportsIdentical(const ReplayReport& want, const ReplayReport& got,
                                   const TraceScope* want_trace = nullptr,
                                   const TraceScope* got_trace = nullptr) {
  EXPECT_EQ(want.system, got.system);
  EXPECT_EQ(want.workload, got.workload);
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.total_ops, got.total_ops);
  // The counter blocks' defaulted operator== compares every field, breakdown_sums included.
  EXPECT_TRUE(want.counters == got.counters);
  EXPECT_TRUE(want.latency_histogram == got.latency_histogram);
  EXPECT_EQ(want.avg_latency_us, got.avg_latency_us);
  EXPECT_EQ(want.throughput_mops, got.throughput_mops);
  EXPECT_TRUE(want.prefetch == got.prefetch);
  EXPECT_TRUE(want.fault == got.fault);
  if (want_trace != nullptr || got_trace != nullptr) {
    ASSERT_TRUE(want_trace != nullptr && got_trace != nullptr) << "only one run was traced";
    EXPECT_EQ(want_trace->semantic_events(), got_trace->semantic_events());
    EXPECT_EQ(want_trace->SemanticDigest(), got_trace->SemanticDigest());
    EXPECT_TRUE(want_trace->SemanticBytes() == got_trace->SemanticBytes());
  }
}

// What a conformance case leaves to check beyond equality.
struct Conformance {
  ReplayReport oracle;     // PerOpLoop's report.
  ShardReport accounting;  // The engine's channel vs drain split.
};

// Replays `traces` through PerOpLoop on one fresh system from `make` and through
// ReplayEngine on another, both traced when `trace`, and expects identical results.
// A traced case must emit semantic events, or comparing them would prove nothing, and
// the engine must have finalized its trace scope.
inline Conformance ExpectEngineMatchesOracle(const SystemFactory& make,
                                             const WorkloadTraces& traces,
                                             bool trace = false) {
  Conformance out;
  TraceScope oracle_trace;
  auto oracle_sys = make();
  out.oracle = PerOpLoop(oracle_sys.get(), traces, trace ? &oracle_trace : nullptr);
  EXPECT_TRUE(!trace || oracle_trace.semantic_events() > 0) << "the traced run emitted nothing";

  auto sys = make();
  ReplayOptions opts;
  opts.trace = trace;
  ReplayEngine engine(sys.get(), &traces, opts);
  const Status setup = engine.Setup();
  EXPECT_TRUE(setup.ok()) << setup.ToString();
  if (!setup.ok()) {
    return out;
  }
  const ReplayReport got = engine.Run();
  ExpectReportsIdentical(out.oracle, got, trace ? &oracle_trace : nullptr,
                         engine.trace_scope());
  EXPECT_TRUE(!trace || (engine.trace_scope() != nullptr && engine.trace_scope()->finalized()))
      << "the engine did not finalize its trace";
  EXPECT_EQ(engine.shard_reports().size(), 1u);
  if (engine.shard_reports().empty()) {
    return out;
  }
  out.accounting = engine.shard_reports()[0];
  EXPECT_EQ(out.accounting.parallel_hits + out.accounting.drained_ops, got.total_ops)
      << "an op was neither committed on a channel nor drained";
  return out;
}

}  // namespace mind

#endif  // MIND_TESTS_REPLAY_CONFORMANCE_H_
