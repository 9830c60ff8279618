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
// when both runs were traced. ExpectEngineMatchesOracle runs one case both ways and also
// compares the systems' final `system/` metrics trees. Every test binary that includes
// this header carries the ctest label `conformance` (CMakeLists.txt).
#ifndef MIND_TESTS_REPLAY_CONFORMANCE_H_
#define MIND_TESTS_REPLAY_CONFORMANCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/memory_system.h"
#include "src/obs/metrics_registry.h"
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

// The metric names under "system/" in `reg`, in the registry's (sorted) order.
inline std::vector<std::string> SystemMetricNames(const MetricsRegistry& reg) {
  std::ostringstream text;
  reg.ExportText(text);
  std::istringstream lines(text.str());
  std::vector<std::string> names;
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("system/")) {
      names.push_back(line.substr(0, line.find(' ')));
    }
  }
  return names;
}

// Expects the two registries' `system/` trees to hold the same names with bit-identical
// values, except the two counters the engine books itself for channel-committed hits
// (the system's own count covers only drained ops).
inline void ExpectSystemTreesIdentical(const MetricsRegistry& want, const MetricsRegistry& got) {
  const std::vector<std::string> names = SystemMetricNames(want);
  ASSERT_FALSE(names.empty()) << "the oracle collected no system metrics";
  ASSERT_EQ(names, SystemMetricNames(got));
  for (const std::string& name : names) {
    if (name == "system/counters/total_accesses" || name == "system/counters/local_hits") {
      continue;
    }
    const MetricsRegistry::Entry& w = *want.Find(name);
    const MetricsRegistry::Entry& g = *got.Find(name);
    EXPECT_TRUE(w.kind == g.kind && w.counter == g.counter &&
                std::bit_cast<uint64_t>(w.gauge) == std::bit_cast<uint64_t>(g.gauge))
        << name << ": oracle " << w.counter << "/" << w.gauge << ", engine " << g.counter
        << "/" << g.gauge;
  }
}

// What a conformance case leaves to check beyond equality.
struct Conformance {
  ReplayReport oracle;             // PerOpLoop's report.
  MetricsRegistry oracle_metrics;  // The oracle system's CollectMetrics after the run.
  ShardReport accounting;          // The engine's channel vs drain split.
  size_t max_group_lanes = 0;      // Widest group commit of a traced engine run.
  size_t samples = 0;              // Sampler calls per run (0 unsampled).
};

// Replays `traces` through PerOpLoop on one fresh system from `make` and through
// ReplayEngine with `options` on another, and expects identical reports and identical
// final `system/` metrics trees. `options.prefetch` is applied to the oracle's system as
// ReplayEngine::Setup applies it. A traced case must emit semantic events, or comparing
// them would prove nothing, and its report must also equal an untraced oracle's: tracing
// only observes. A profiled case must record both profiler lanes. A nonzero
// `sample_interval` puts a sampler on both runs that records (clock, accesses so far);
// it must fire at the same points, and the engine then commits nothing on channels.
inline Conformance ExpectEngineMatchesOracle(const SystemFactory& make,
                                             const WorkloadTraces& traces,
                                             const ReplayOptions& options = {},
                                             SimTime sample_interval = 0) {
  using Samples = std::vector<std::pair<SimTime, uint64_t>>;
  const auto sampler_for = [sample_interval](MemorySystem* sys, Samples* out) {
    return sample_interval == 0 ? ReplayEngine::Sampler()
                                : [sys, out](SimTime now) {
                                    out->emplace_back(now, sys->counters().total_accesses);
                                  };
  };
  const auto run_oracle = [&](TraceScope* scope, Samples* samples, MetricsRegistry* metrics) {
    auto sys = make();
    if (options.prefetch != PrefetchPolicy::kNone) {
      EXPECT_TRUE(sys->SetPrefetchPolicy(options.prefetch));
    }
    const ReplayReport report = PerOpLoop(sys.get(), traces, scope,
                                          sampler_for(sys.get(), samples), sample_interval);
    if (metrics != nullptr) {
      sys->CollectMetrics(metrics, "system");
    }
    return report;
  };

  Conformance out;
  TraceScope oracle_trace;
  Samples want_samples;
  out.oracle = run_oracle(options.trace ? &oracle_trace : nullptr, &want_samples,
                          &out.oracle_metrics);
  if (options.trace) {
    EXPECT_GT(oracle_trace.semantic_events(), 0u) << "the traced run emitted nothing";
    Samples untraced_samples;
    ExpectReportsIdentical(run_oracle(nullptr, &untraced_samples, nullptr), out.oracle);
  }

  auto sys = make();
  ReplayEngine engine(sys.get(), &traces, options);
  const Status setup = engine.Setup();
  EXPECT_TRUE(setup.ok()) << setup.ToString();
  if (!setup.ok()) {
    return out;
  }
  Samples got_samples;
  const ReplayReport got =
      sample_interval == 0 ? engine.Run()
                           : engine.Run(sampler_for(sys.get(), &got_samples), sample_interval);
  ExpectReportsIdentical(out.oracle, got, options.trace ? &oracle_trace : nullptr,
                         engine.trace_scope());
  ExpectSystemTreesIdentical(out.oracle_metrics, *engine.metrics());
  EXPECT_EQ(got_samples, want_samples);
  out.samples = want_samples.size();
  out.accounting = engine.shard_reports()[0];
  EXPECT_EQ(out.accounting.parallel_hits + out.accounting.drained_ops, got.total_ops)
      << "an op was neither committed on a channel nor drained";
  EXPECT_EQ(out.accounting.grouped_ops, out.accounting.parallel_hits)
      << "a channel op committed outside its blade's group";
  if (sample_interval != 0) {
    EXPECT_EQ(out.accounting.parallel_hits, 0u) << "a sampled run opened channels";
  }
  const TraceScope* engine_trace = engine.trace_scope();
  EXPECT_EQ(engine_trace != nullptr && engine_trace->finalized(), options.trace)
      << "the engine's finalized trace does not follow options.trace";
  if (engine_trace != nullptr) {
    for (const TraceEvent& e : engine_trace->merged()) {
      if (e.kind == TraceEventKind::kGroupCommit) {
        out.max_group_lanes = std::max<size_t>(out.max_group_lanes, e.b);
      }
    }
  }
  const PhaseProfiler* prof = engine.profiler();
  EXPECT_EQ(prof != nullptr, options.profile);
  if (prof != nullptr) {
    for (const size_t lane : {PhaseProfiler::kChannelLane, prof->serial_lane()}) {
      uint64_t recorded = 0;
      for (const uint64_t count : prof->lane(lane).count) {
        recorded += count;
      }
      EXPECT_GT(recorded, 0u) << "profiler lane " << lane << " recorded nothing";
    }
  }
  return out;
}

}  // namespace mind

#endif  // MIND_TESTS_REPLAY_CONFORMANCE_H_
