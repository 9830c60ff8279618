// Sharded trace replay, end to end: generate a multi-blade workload, replay it on a MIND
// rack with N replay shards (`--shards=N`, default 1), and print the merged report plus
// the per-shard breakdown.
//
// Replay results are bit-identical for every shard count — shards only partition the
// blades the channel rounds visit in turn on the one replay thread, never what the
// simulator computes. Try `--shards=1` and `--shards=4` and compare the reported
// makespan, counters and latency percentiles: they match exactly.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

using namespace mind;

int main(int argc, char** argv) {
  // --shards=N, or MIND_REPLAY_SHARDS as the fallback (shared bench/example parser).
  const int shards = bench::ShardsFromArgs(argc, argv);
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
  // writes — real cross-shard invalidation waves for the deterministic merge to sequence.
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
  options.shards = shards;
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
  std::printf("replay shards       : %d (requested %d)\n", engine.effective_shards(),
              shards);
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
  std::printf("replay wall clock   : %.1f ms\n\n", wall_ms);

  std::printf("per-shard breakdown (parallel fast-path hits vs serialized coherence):\n");
  const auto& shard_reports = engine.shard_reports();
  for (size_t s = 0; s < shard_reports.size(); ++s) {
    const ShardReport& sr = shard_reports[s];
    std::printf("  shard %zu: %9llu parallel hits, %9llu drained ops, makespan %.3f ms\n", s,
                static_cast<unsigned long long>(sr.parallel_hits),
                static_cast<unsigned long long>(sr.drained_ops), ToMillis(sr.makespan));
  }
  if (options.trace) {
    bench::WriteTraceReportLine(engine, trace_path);
  }
  if (profile && engine.profiler() != nullptr) {
    bench::PrintPhaseProfile(*engine.profiler());
  }
  std::printf("\nRe-run with a different --shards=N: every number above except the wall "
              "clock stays identical.\n");
  return 0;
}
