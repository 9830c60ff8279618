// Channel-based trace replay, end to end: generate a multi-blade workload, replay it on a
// MIND rack through the AccessChannel engine, and print the report plus how many ops the
// channel fast path committed versus how many the serialized coherence drain executed.
//
// Replay results are bit-identical to per-op replay, as the oracle in
// tests/replay_conformance.h checks: channels change how fast the simulator replays,
// never what it computes.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

using namespace mind;

int main(int argc, char** argv) {
  // --prefetch=<none|nextn|stride>, or MIND_PREFETCH as the fallback: opt the replay
  // into pattern-aware prefetching (src/prefetch/prefetch.h). Default: none.
  const PrefetchPolicy prefetch = bench::PrefetchFromArgs(argc, argv);
  // --trace=FILE (or MIND_TRACE): record a TraceScope and export Chrome/Perfetto JSON.
  // --profile (or MIND_PROFILE=1): wall-clock per-phase profile, printed after the run.
  const std::string trace_path = bench::TraceFromArgs(argc, argv);
  const bool profile = bench::ProfileFromArgs(argc, argv);

  RackConfig config;
  config.num_compute_blades = 4;
  config.num_memory_blades = 4;
  config.compute_cache_bytes = 64ull << 20;
  config.splitting.epoch_length = 5 * kMillisecond;
  MindSystem system(config);

  // KVS-style mix at 4 blades: cache-resident per-thread partitions (long blade-local
  // runs the AccessChannel fast path batches; the sequential scan also gives the warmup
  // faults a stride for --prefetch to detect) plus a zipfian shared table with sparse
  // writes — real cross-blade invalidation waves for the deterministic merge to sequence.
  WorkloadSpec spec;
  spec.name = "kvs-mix";
  spec.num_blades = 4;
  spec.threads_per_blade = 2;
  spec.private_pages_per_thread = 2048;
  spec.private_pattern = Pattern::kSequential;
  spec.private_write_fraction = 0.5;
  spec.shared_pages = 2048;
  spec.shared_pattern = Pattern::kZipfian;
  spec.shared_access_fraction = 0.02;
  spec.shared_write_fraction = 0.05;
  spec.accesses_per_thread = 20'000;
  spec.seed = 5;
  const WorkloadTraces traces = GenerateTraces(spec);

  ReplayOptions options;
  options.prefetch = prefetch;
  options.trace = !trace_path.empty();
  options.profile = profile;
  ReplayEngine engine(&system, &traces, options);
  if (const Status s = engine.Setup(); !s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const ReplayReport report = engine.Run();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();

  std::printf("workload            : %s on %s\n", report.workload.c_str(),
              report.system.c_str());
  std::printf("total ops           : %llu\n",
              static_cast<unsigned long long>(report.total_ops));
  std::printf("simulated makespan  : %.3f ms\n", ToMillis(report.makespan));
  std::printf("throughput          : %.3f Mops/s (simulated)\n", report.throughput_mops);
  const HistogramSummary latency = report.latency_histogram.Summary();
  std::printf("avg latency         : %.3f us   p50 %.3f us   p99 %.3f us\n",
              report.avg_latency_us, ToMicros(latency.p50), ToMicros(latency.p99));
  std::printf("local hit rate      : %.1f%%\n",
              report.total_ops == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(report.counters.local_hits) /
                        static_cast<double>(report.total_ops));
  std::printf("invalidations       : %llu (%.4f per op)\n",
              static_cast<unsigned long long>(report.counters.invalidations),
              report.InvalidationsPerOp());
  std::printf("prefetch            : %s (issued %llu, useful %llu, late %llu, "
              "coverage %.1f%%)\n",
              ToString(prefetch), static_cast<unsigned long long>(report.prefetch.issued),
              static_cast<unsigned long long>(report.prefetch.useful),
              static_cast<unsigned long long>(report.prefetch.late),
              100.0 * report.PrefetchCoverage());
  std::printf("replay wall clock   : %.1f ms\n", wall_ms);

  const ShardReport& accounting = engine.shard_reports()[0];
  std::printf("channel vs drain    : %llu parallel hits, %llu drained ops\n",
              static_cast<unsigned long long>(accounting.parallel_hits),
              static_cast<unsigned long long>(accounting.drained_ops));
  if (options.trace) {
    bench::WriteTraceReportLine(engine, trace_path);
  }
  if (profile && engine.profiler() != nullptr) {
    bench::PrintPhaseProfile(*engine.profiler());
  }
  return 0;
}
